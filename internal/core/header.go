package core

import (
	"encoding/binary"
	"fmt"

	"deepsqueeze/internal/preprocess"
)

// appendHeaderPayload serializes the version-2 header chunk payload.
func appendHeaderPayload(dst []byte, plan *preprocess.Plan, codeSize, codeBits, experts, rowGroupSize int) []byte {
	dst = plan.AppendBinary(dst)
	dst = binary.AppendUvarint(dst, uint64(codeSize))
	dst = binary.AppendUvarint(dst, uint64(codeBits))
	dst = binary.AppendUvarint(dst, uint64(experts))
	dst = binary.AppendUvarint(dst, uint64(rowGroupSize))
	return dst
}

// decodeHeader parses the header chunk payload into m, under m.version.
// Version 1 stores the row count in the header; version 2 moves it to the
// footer (a streaming writer does not know the total up front) and adds the
// nominal row-group size instead.
func (m *archiveMeta) decodeHeader(hdr []byte) error {
	pos := 0
	if m.version == archiveVersionV1 {
		rows64, sz := binary.Uvarint(hdr)
		if sz <= 0 {
			return fmt.Errorf("%w: missing row count", ErrCorrupt)
		}
		if rows64 > maxArchiveRows {
			return fmt.Errorf("%w: %d rows exceeds the format limit", ErrCorrupt, rows64)
		}
		m.rows = int(rows64)
		pos = sz
	}
	plan, used, err := preprocess.DecodePlan(hdr[pos:])
	if err != nil {
		return corrupt(err)
	}
	m.plan = plan
	pos += used
	vals := []*int{&m.codeSize, &m.codeBits, &m.numExperts}
	if m.version != archiveVersionV1 {
		vals = append(vals, &m.rowGroupSize)
	}
	for _, dst := range vals {
		v, sz := binary.Uvarint(hdr[pos:])
		if sz <= 0 {
			return fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		*dst = int(v)
		pos += sz
	}
	if pos != len(hdr) {
		return fmt.Errorf("%w: trailing header bytes", ErrCorrupt)
	}
	return nil
}
