package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// This file is the container layer: it alone knows what the envelope around
// an archive's components looks like (DESIGN.md §11 has the table). Every
// writer emits through the framer and every reader parses through the walker
// functions below it; each reader keeps only its own expectation checks
// (footer vs. rows seen so far, extents vs. the body it holds).
//
//	magic "DSQZ" · version · flags
//	chunk(header) · [chunk(decoders | model hash)]        framer.prefix
//	{ kindSegment · chunk(segment body · CRC32) }         framer.segment
//	[ kindStats · chunk(zone maps) ]                      framer.finish
//	kindFooter · chunk(footer) · u64 footer offset · CRC32
//
// A chunk is a uvarint length followed by that many bytes. A version-1
// archive stops after the prefix: its one group's section chunks follow
// unframed and run to the checksum.

var magic = [4]byte{'D', 'S', 'Q', 'Z'}

// Archive format versions. Version 2 stores tuples in self-contained row-group
// segments with a trailing footer index; version 1 (single implicit group,
// global sections) is still fully readable for old archives and the golden
// fixtures.
const (
	archiveVersion   = 2
	archiveVersionV1 = 1
)

// Top-level chunk kinds in a version-2 body, written as a single byte before
// the chunk so a sequential reader can tell segments from the footer without
// knowing the group count up front.
const (
	kindSegment byte = 1
	kindFooter  byte = 2
	// kindStats frames the optional zone-map statistics chunk, written
	// between the last segment and the footer (flagZoneMaps gates it, so
	// readers of flag-less archives never see the kind).
	kindStats byte = 3
)

// Archive flags.
const (
	flagGrouped       byte = 1 << 0 // tuples stored grouped by expert
	flagHasModel      byte = 1 << 1 // decoders/codes sections present
	flagRowOrder      byte = 1 << 2 // original row order recoverable
	flagExternalModel byte = 1 << 3 // decoders live in a separate model archive
	flagZoneMaps      byte = 1 << 4 // per-group zone-map stats chunk present
	flagFloat32       byte = 1 << 5 // failure streams computed against float32 inference (read only: no writer sets it)
	flagResidual      byte = 1 << 6 // plan routes high-cardinality categoricals as residual digits
)

// maxStreamChunk bounds a single length-prefixed chunk an untrusted
// streaming archive may ask the reader to buffer (the chunk framing uses a
// uvarint, so a corrupt length could otherwise demand an absurd allocation
// before any content is validated).
const maxStreamChunk = 1 << 30

// maxArchiveRows is the format's row-count ceiling (2^31-1).
const maxArchiveRows = math.MaxInt32

// groupMeta is one footer-index entry: a row group's span, its segment's
// location in the archive, and the per-section byte sizes inside the segment
// (for Inspect and the Fig. 6 breakdown).
type groupMeta struct {
	start, count int
	off, segLen  int64 // kind byte offset and framed length (kind + chunk)
	codes        int64
	mapping      int64
	failures     int64
}

// appendChunk appends payload behind its uvarint length.
func appendChunk(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// builtSegment is one row group ready to frame: buildSegment's CRC-framed
// body, the section sizes the footer records, and the group's zone maps.
type builtSegment struct {
	framed                   []byte
	count                    int
	codes, mapping, failures int64
	zones                    []ZoneMap
}

// framer writes the envelope to w front to back — prefix, one segment per
// row group, finish — keeping the running checksum, the offset and the
// footer index as it goes, so the same code serves a bytes.Buffer and a
// writer whose output is already on its way to disk.
type framer struct {
	w     io.Writer
	crc   hash.Hash32
	off   int64
	flags byte
	rows  int
	metas []groupMeta
	zones [][]ZoneMap
}

func newFramer(w io.Writer) *framer { return &framer{w: w, crc: crc32.NewIEEE()} }

func (f *framer) write(b []byte) error {
	if _, err := f.w.Write(b); err != nil {
		return err
	}
	f.crc.Write(b)
	f.off += int64(len(b))
	return nil
}

// prefix writes magic, version, flags, the header chunk and — when the flags
// say the archive has a model — the decoder chunk, returning the latter's
// framed size.
func (f *framer) prefix(flags byte, header, decoders []byte) (int64, error) {
	f.flags = flags
	b := append(magic[:len(magic):len(magic)], archiveVersion, flags)
	b = appendChunk(b, header)
	n := len(b)
	if flags&flagHasModel != 0 {
		b = appendChunk(b, decoders)
	}
	return int64(len(b) - n), f.write(b)
}

// segment frames the next row group and records its footer entry.
func (f *framer) segment(s builtSegment) error {
	off := f.off
	if err := f.write(binary.AppendUvarint([]byte{kindSegment}, uint64(len(s.framed)))); err != nil {
		return err
	}
	if err := f.write(s.framed); err != nil {
		return err
	}
	f.metas = append(f.metas, groupMeta{
		start: f.rows, count: s.count, off: off, segLen: f.off - off,
		codes: s.codes, mapping: s.mapping, failures: s.failures,
	})
	f.zones = append(f.zones, s.zones)
	f.rows += s.count
	return nil
}

// finish writes the stats chunk (when flagged), the footer index, the
// footer-offset trailer and the archive checksum.
func (f *framer) finish() error {
	var tail []byte
	if f.flags&flagZoneMaps != 0 {
		tail = appendChunk([]byte{kindStats}, appendZoneStatsPayload(nil, f.zones))
	}
	footOff := f.off + int64(len(tail))
	tail = appendChunk(append(tail, kindFooter), appendFooterPayload(nil, f.rows, f.metas))
	tail = binary.LittleEndian.AppendUint64(tail, uint64(footOff))
	if err := f.write(tail); err != nil {
		return err
	}
	f.off += 4
	_, err := f.w.Write(binary.LittleEndian.AppendUint32(nil, f.crc.Sum32()))
	return err
}

// appendFooterPayload serializes the footer chunk payload: total rows, group
// count, and one groupMeta per group.
func appendFooterPayload(dst []byte, rows int, groups []groupMeta) []byte {
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendUvarint(dst, uint64(len(groups)))
	for _, g := range groups {
		for _, v := range [7]int64{int64(g.start), int64(g.count), g.off, g.segLen, g.codes, g.mapping, g.failures} {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

// newSectionReader validates magic, version, and checksum, returning a
// reader positioned after the flag byte, plus the version and flag bytes.
// Versions 1 and 2 are accepted; the reader's buf excludes the CRC trailer.
func newSectionReader(buf []byte) (*sectionReader, byte, byte, error) {
	if len(buf) < 10 || !bytes.Equal(buf[:4], magic[:]) {
		return nil, 0, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if buf[4] != archiveVersionV1 && buf[4] != archiveVersion {
		return nil, 0, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, buf[4])
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, 0, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return &sectionReader{buf: body, pos: 6}, buf[4], buf[5], nil
}

// newArchiveMeta decodes the header chunk — the part of the prefix the
// in-memory and the streaming parser share — derives the model layout and
// validates the header's model-shape fields: at least one expert, and for
// archives with a model a code size of at most maxCodeSize (each code
// dimension occupies at least one archive byte, so the caller passes what it
// knows about the archive's length) and code bits in [1, 32] (anything wider
// would overflow the reconstruction grid). rows is set for version 1 only.
func newArchiveMeta(version, flags byte, hdr []byte, maxCodeSize int) (*archiveMeta, error) {
	m := &archiveMeta{version: version, flags: flags, hasModel: flags&flagHasModel != 0}
	if err := m.decodeHeader(hdr); err != nil {
		return nil, err
	}
	var err error
	if m.layout, err = deriveLayout(m.plan); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m.numExperts < 1 || m.numExperts > 1<<20 {
		return nil, fmt.Errorf("%w: %d experts", ErrCorrupt, m.numExperts)
	}
	if m.hasModel {
		if m.codeSize < 0 || m.codeSize > maxCodeSize {
			return nil, fmt.Errorf("%w: code size %d exceeds archive", ErrCorrupt, m.codeSize)
		}
		if m.codeBits < 1 || m.codeBits > 32 {
			return nil, fmt.Errorf("%w: code bits %d outside [1,32]", ErrCorrupt, m.codeBits)
		}
	}
	return m, nil
}

// segmentHeader is what a segment says about itself ahead of its section
// chunks: the row span it claims and its group's plan override (nil when the
// header plan applies).
type segmentHeader struct {
	start, count uint64
	plan         []byte
}

// parseSegment validates a segment chunk's trailing CRC and parses its header
// chunk (row span, then a 0/1 marker and behind a 1 the plan chunk),
// returning it with a reader positioned at the first section chunk. Whether
// the span is the expected one is the caller's check.
func parseSegment(framed []byte) (h segmentHeader, body *sectionReader, err error) {
	if len(framed) < 4 {
		return h, nil, fmt.Errorf("%w: segment too short", ErrCorrupt)
	}
	b, tail := framed[:len(framed)-4], framed[len(framed)-4:]
	if crc32.ChecksumIEEE(b) != binary.LittleEndian.Uint32(tail) {
		return h, nil, fmt.Errorf("%w: segment checksum mismatch", ErrCorrupt)
	}
	body = &sectionReader{buf: b}
	sh, err := body.chunk()
	if err != nil {
		return h, nil, err
	}
	shr := &sectionReader{buf: sh}
	if h.start, err = shr.uvarint(); err != nil {
		return h, nil, err
	}
	if h.count, err = shr.uvarint(); err != nil {
		return h, nil, err
	}
	hasPlan, err := shr.byte()
	if err != nil {
		return h, nil, err
	}
	if err := shr.done(); err != nil {
		return h, nil, err
	}
	switch hasPlan {
	case 0:
	case 1:
		if h.plan, err = body.chunk(); err != nil {
			return h, nil, err
		}
	default:
		return h, nil, fmt.Errorf("%w: segment plan marker %d", ErrCorrupt, hasPlan)
	}
	return h, body, nil
}

// segment steps r over footer entry g's segment, holding the bytes to the
// footer: the segment starts where r stands, is a kindSegment chunk, ends at
// the entry's extent and claims the entry's row span. With open set it
// returns the group's plan override and a reader over its section chunks;
// otherwise the segment's contents are never touched and n is the number of
// payload bytes stepped over.
func (m *archiveMeta) segment(r *sectionReader, g groupMeta, open bool) (plan []byte, body *sectionReader, n int64, err error) {
	if int64(r.pos) != g.off {
		return nil, nil, 0, fmt.Errorf("%w: segment at offset %d, footer says %d", ErrCorrupt, r.pos, g.off)
	}
	end := int(g.off + g.segLen)
	if m.version == archiveVersionV1 {
		// The synthetic group of a version-1 archive: bare section chunks.
		body = &sectionReader{buf: m.body[:end], pos: r.pos}
		r.pos = end
		return nil, body, g.segLen, nil
	}
	kind, err := r.byte()
	if err != nil {
		return nil, nil, 0, err
	}
	if kind != kindSegment {
		return nil, nil, 0, fmt.Errorf("%w: chunk kind %d, want segment", ErrCorrupt, kind)
	}
	var framed []byte
	if open {
		framed, err = r.chunk()
		n = int64(len(framed))
	} else {
		n, err = r.skip()
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if r.pos != end {
		return nil, nil, 0, fmt.Errorf("%w: segment length disagrees with footer", ErrCorrupt)
	}
	if !open {
		return nil, nil, n, nil
	}
	h, body, err := parseSegment(framed)
	if err != nil {
		return nil, nil, 0, err
	}
	if h.start != uint64(g.start) || h.count != uint64(g.count) {
		return nil, nil, 0, fmt.Errorf("%w: segment span [%d,+%d) disagrees with footer", ErrCorrupt, h.start, h.count)
	}
	return h.plan, body, n, nil
}

// statsChunk checks what lies between the last segment, ending at pos, and
// the footer: nothing, or — when the archive is flagged as carrying zone
// maps — exactly one kindStats chunk, whose payload it returns.
func (m *archiveMeta) statsChunk(pos int64) ([]byte, error) {
	if m.flags&flagZoneMaps == 0 {
		if pos != m.footOff {
			return nil, fmt.Errorf("%w: %d unclaimed bytes before footer", ErrCorrupt, m.footOff-pos)
		}
		return nil, nil
	}
	if pos >= m.footOff {
		return nil, fmt.Errorf("%w: no room for stats chunk", ErrCorrupt)
	}
	sr := &sectionReader{buf: m.body[:m.footOff], pos: int(pos)}
	kind, err := sr.byte()
	if err != nil {
		return nil, err
	}
	if kind != kindStats {
		return nil, fmt.Errorf("%w: chunk kind %d, want stats", ErrCorrupt, kind)
	}
	payload, err := sr.chunk()
	if err != nil {
		return nil, err
	}
	return payload, sr.done()
}

// decodeFooter parses a footer chunk payload — total rows, group count, seven
// values per group — checking what holds for any reader: the row and group
// counts are within the format's limits and the payload's size, every value
// fits its field, no section is larger than its segment, nothing trails.
// Whether the entries are the right ones is the caller's check.
func decodeFooter(payload []byte) (rows int, groups []groupMeta, err error) {
	fr := &sectionReader{buf: payload}
	rows64, err := fr.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if rows64 > maxArchiveRows {
		return 0, nil, fmt.Errorf("%w: %d rows exceeds the format limit", ErrCorrupt, rows64)
	}
	n64, err := fr.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n64 < 1 || n64 > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("%w: %d row groups", ErrCorrupt, n64)
	}
	groups = make([]groupMeta, n64)
	for i := range groups {
		var v [7]uint64
		for j := range v {
			if v[j], err = fr.uvarint(); err != nil {
				return 0, nil, err
			}
		}
		if v[0] > rows64 || v[1] > rows64 || v[2] > math.MaxInt64/2 || v[3] > math.MaxInt64/2 {
			return 0, nil, fmt.Errorf("%w: group %d span or extent out of range", ErrCorrupt, i)
		}
		if v[4] > v[3] || v[5] > v[3] || v[6] > v[3] {
			return 0, nil, fmt.Errorf("%w: group %d section sizes exceed segment", ErrCorrupt, i)
		}
		groups[i] = groupMeta{
			start: int(v[0]), count: int(v[1]), off: int64(v[2]), segLen: int64(v[3]),
			codes: int64(v[4]), mapping: int64(v[5]), failures: int64(v[6]),
		}
	}
	return int(rows64), groups, fr.done()
}

// parseFooter locates and validates the footer of an archive held in memory
// (body is CRC-stripped): the trailing 8 bytes give the offset of the
// footer's kind byte; the footer chunk must end exactly where the trailer
// begins, group spans must partition [0, rows) in order, and segment extents
// must be ascending, non-overlapping, and inside [minOff, footOff). Returns
// the rows, the groups and the kind-byte offset.
func parseFooter(body []byte, minOff int) (int, []groupMeta, int64, error) {
	if len(body) < minOff+1+8 {
		return 0, nil, 0, fmt.Errorf("%w: no room for footer", ErrCorrupt)
	}
	footOff64 := binary.LittleEndian.Uint64(body[len(body)-8:])
	if footOff64 < uint64(minOff) || footOff64 > uint64(len(body)-9) {
		return 0, nil, 0, fmt.Errorf("%w: footer offset %d outside body", ErrCorrupt, footOff64)
	}
	footOff := int64(footOff64)
	if body[footOff] != kindFooter {
		return 0, nil, 0, fmt.Errorf("%w: footer kind byte %d", ErrCorrupt, body[footOff])
	}
	r := &sectionReader{buf: body[:len(body)-8], pos: int(footOff) + 1}
	payload, err := r.chunk()
	if err != nil {
		return 0, nil, 0, err
	}
	if err := r.done(); err != nil {
		return 0, nil, 0, fmt.Errorf("%w between footer and trailer", err)
	}
	rows, groups, err := decodeFooter(payload)
	if err != nil {
		return 0, nil, 0, err
	}
	nextStart, prevEnd := 0, int64(minOff)
	for i, g := range groups {
		if g.start != nextStart || g.count > rows-nextStart {
			return 0, nil, 0, fmt.Errorf("%w: group %d spans [%d,+%d), want start %d within %d rows", ErrCorrupt, i, g.start, g.count, nextStart, rows)
		}
		nextStart += g.count
		if g.off < prevEnd || g.segLen < 2 || g.off+g.segLen > footOff {
			return 0, nil, 0, fmt.Errorf("%w: group %d segment extent [%d,%d)", ErrCorrupt, i, g.off, g.off+g.segLen)
		}
		prevEnd = g.off + g.segLen
	}
	if nextStart != rows {
		return 0, nil, 0, fmt.Errorf("%w: groups cover %d of %d rows", ErrCorrupt, nextStart, rows)
	}
	return rows, groups, footOff, nil
}
