package core

import (
	"deepsqueeze/internal/dataset"
)

// GroupInfo is one row group's footer-index entry: its row span and the
// sizes of its archive sections.
type GroupInfo struct {
	RowStart     int
	RowCount     int
	SegmentBytes int64 // whole segment including framing and checksum
	CodesBytes   int64
	MappingBytes int64
	FailureBytes int64
}

// ArchiveInfo summarizes an archive without decompressing it.
type ArchiveInfo struct {
	Version    int
	Rows       int
	Schema     *dataset.Schema
	ColumnKind []string // preprocessing kind per column
	// KindCensus counts columns per preprocessing kind (keyed by the kind's
	// String form): how many columns travel through the model, as binary,
	// as residual digits, or through the colfile fallback.
	KindCensus map[string]int
	CodeSize   int
	CodeBits   int
	NumExperts int
	// Streaming reports whether this is a batch archive that needs its
	// model archive (DecompressBatch).
	Streaming bool
	// RowOrderPreserved reports whether decompression restores the
	// original tuple order.
	RowOrderPreserved bool
	TotalBytes        int
	// RowGroupSize is the nominal rows per group (format v2; 0 for v1).
	RowGroupSize int
	// HasZoneMaps reports whether the archive carries per-row-group zone
	// maps (format v2): the statistics Query uses to prune row groups.
	HasZoneMaps bool
	// Float32Decode reports whether the archive's failure streams were
	// computed against float32 decoder inference (flagFloat32): every
	// reader decodes it through the float32 kernel path. Only archives from
	// earlier writers carry it.
	Float32Decode bool
	// DecoderBytes is the stored decoder section's size: the compressed
	// model weights (32 for a streaming batch archive's model hash; 0 when
	// the archive has no model columns).
	DecoderBytes int64
	// Groups is the footer's row-group index (format v2; nil for v1).
	Groups []GroupInfo
}

// Inspect parses an archive's header — and, for format v2, its footer index
// — validating the checksum, and returns its metadata. It does not run the
// decoder and is cheap even for large archives.
func Inspect(archive []byte) (*ArchiveInfo, error) {
	m, err := parseArchiveMeta(archive)
	if err != nil {
		return nil, err
	}
	return m.info(), nil
}
