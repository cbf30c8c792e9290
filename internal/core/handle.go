package core

import (
	"context"
	"fmt"
	"os"
	"sync"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/preprocess"
)

// archiveMeta is the parsed-once, immutable view of an archive's metadata:
// envelope, header, layout, footer index, and the location of the decoder
// section. Everything in it is derived from the archive bytes alone — no
// per-request state — so one meta can back any number of concurrent
// decompressions and queries. Allocation is bounded by the archive length
// (never by the declared row count), so parsing an untrusted archive is safe
// before any MaxRows policy is applied.
type archiveMeta struct {
	raw  []byte // the whole archive, checksum included
	body []byte // CRC-stripped body (sectionReader view)

	version byte
	flags   byte

	rows         int
	plan         *preprocess.Plan
	layout       *layout
	codeSize     int
	codeBits     int
	numExperts   int
	rowGroupSize int
	hasModel     bool

	// groups is the footer index. A version-1 archive gets one synthetic
	// entry — every row, the extent of its unframed section chunks — so
	// nothing downstream of the parse asks which version it is reading.
	groups  []groupMeta
	footOff int64 // footer kind-byte offset; where the synthetic group ends

	// decoderChunk is the raw (still compressed) decoder-section payload —
	// or, in a streaming batch archive, the 32-byte hash of its model
	// archive's; nil when the archive has no model.
	decoderChunk []byte
	// bodyPos is the body offset of the first row-group section, i.e. just
	// past the decoder chunk: where a per-request scan resumes.
	bodyPos int
}

// parseArchiveMeta validates the envelope and checksum, decodes the header
// and the footer index, checks the header's model-shape fields for honesty,
// and locates the decoder section. It is the single metadata parse behind
// Open, ReadIndex, Inspect, and every byte-slice decompression entry point.
func parseArchiveMeta(archive []byte) (*archiveMeta, error) {
	r, version, flags, err := newSectionReader(archive)
	if err != nil {
		return nil, err
	}
	hdr, err := r.chunk()
	if err != nil {
		return nil, err
	}
	m, err := newArchiveMeta(version, flags, hdr, len(archive))
	if err != nil {
		return nil, err
	}
	m.raw, m.body = archive, r.buf
	if version == archiveVersionV1 {
		// Version 1 never defined the stats chunk; readers ignored the bit.
		m.flags &^= flagZoneMaps
	} else if m.rows, m.groups, m.footOff, err = parseFooter(r.buf, r.pos); err != nil {
		return nil, err
	}
	if m.numExperts > m.rows+1 {
		return nil, fmt.Errorf("%w: %d experts for %d rows", ErrCorrupt, m.numExperts, m.rows)
	}
	if m.hasModel != (len(m.layout.specs) > 0 && m.rows > 0) {
		return nil, fmt.Errorf("%w: model flag disagrees with plan", ErrCorrupt)
	}
	if m.hasModel {
		// The decoder chunk sits directly after the header in both formats.
		// Only its frame is validated here; the weights inside are inflated
		// and parsed once, on the first request that needs the model.
		if m.decoderChunk, err = r.chunk(); err != nil {
			return nil, err
		}
	}
	m.bodyPos = r.pos
	if version == archiveVersionV1 {
		m.footOff = int64(len(m.body))
		m.groups = []groupMeta{{count: m.rows, off: int64(m.bodyPos), segLen: m.footOff - int64(m.bodyPos)}}
	}
	return m, nil
}

// index builds the query planner's view from parsed metadata: the row-group
// index plus, when the archive carries them, per-column zone maps (validated
// to exactly fill the gap between the last segment and the footer).
func (m *archiveMeta) index() (*ArchiveIndex, error) {
	idx := &ArchiveIndex{
		Version:  int(m.version),
		Rows:     m.rows,
		Plan:     m.plan,
		External: m.flags&flagExternalModel != 0,
		Groups:   make([]IndexGroup, len(m.groups)),
	}
	for i, g := range m.groups {
		idx.Groups[i] = IndexGroup{Start: g.start, Count: g.count, SegmentBytes: g.segLen}
	}
	last := m.groups[len(m.groups)-1]
	payload, err := m.statsChunk(last.off + last.segLen)
	if err != nil {
		return nil, err
	}
	if payload == nil {
		return idx, nil
	}
	zones, err := parseZoneStats(payload, m.plan, len(m.groups))
	if err != nil {
		return nil, err
	}
	idx.HasZoneMaps = true
	for i := range idx.Groups {
		idx.Groups[i].Zones = zones[i]
	}
	return idx, nil
}

// info builds the human-facing archive summary from parsed metadata.
func (m *archiveMeta) info() *ArchiveInfo {
	info := &ArchiveInfo{
		Version:           int(m.version),
		Rows:              m.rows,
		Schema:            m.plan.Schema,
		CodeSize:          m.codeSize,
		CodeBits:          m.codeBits,
		NumExperts:        m.numExperts,
		Streaming:         m.flags&flagExternalModel != 0,
		RowOrderPreserved: m.flags&flagRowOrder != 0,
		TotalBytes:        len(m.raw),
		RowGroupSize:      m.rowGroupSize,
		DecoderBytes:      int64(len(m.decoderChunk)),
		HasZoneMaps:       m.flags&flagZoneMaps != 0,
		Float32Decode:     m.flags&flagFloat32 != 0,
	}
	if m.version == archiveVersion { // the footer index, for archives that store one
		info.Groups = make([]GroupInfo, len(m.groups))
		for i, g := range m.groups {
			info.Groups[i] = GroupInfo{
				RowStart:     g.start,
				RowCount:     g.count,
				SegmentBytes: g.segLen,
				CodesBytes:   g.codes,
				MappingBytes: g.mapping,
				FailureBytes: g.failures,
			}
		}
	}
	info.ColumnKind = make([]string, len(m.plan.Cols))
	info.KindCensus = make(map[string]int)
	for i := range m.plan.Cols {
		info.ColumnKind[i] = m.plan.Cols[i].Kind.String()
		info.KindCensus[info.ColumnKind[i]]++
	}
	return info
}

// Archive is an open-once/serve-many handle: the archive's header, footer
// index, zone maps, and decoder section are parsed at most once, and any
// number of concurrent decompressions and queries execute against the shared
// parsed state. The handle is safe for concurrent use: its parsed state is
// immutable after Open, and the expensive pieces (decoder weights, zone maps)
// are materialized lazily on first use and then cached for the handle's
// lifetime, so a request pattern that never touches the model never pays for
// it. The one thing requests change is the pool of inference memory they
// borrow from and return to (inferPool, behind its own lock).
type Archive struct {
	meta *archiveMeta

	idxOnce sync.Once
	idx     *ArchiveIndex
	idxErr  error

	decOnce sync.Once
	decs    []*nn.Decoder
	decs32  []*nn.Decoder32 // float32 views, for archives carrying flagFloat32
	decErr  error

	infer inferPool
}

// Open parses the archive's metadata (envelope, checksum, header, footer
// index, decoder-section frame) once and returns a handle for repeated
// decompression and querying. The handle keeps a reference to the archive
// bytes; the caller must not mutate them afterwards.
func Open(archive []byte) (*Archive, error) {
	m, err := parseArchiveMeta(archive)
	if err != nil {
		return nil, err
	}
	return &Archive{meta: m}, nil
}

// OpenFile reads the archive at path and opens it. ErrCorrupt-class failures
// are attributed to the path.
func OpenFile(path string) (*Archive, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Open(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Rows returns the archived table's total row count.
func (a *Archive) Rows() int { return a.meta.rows }

// Schema returns the archived table's schema.
func (a *Archive) Schema() *dataset.Schema { return a.meta.plan.Schema }

// Size returns the archive's size in bytes.
func (a *Archive) Size() int { return len(a.meta.raw) }

// External reports whether this is a streaming batch archive whose model
// lives in a separate model archive (DecompressBatch territory: the handle
// cannot decode it alone).
func (a *Archive) External() bool { return a.meta.flags&flagExternalModel != 0 }

// Info returns the archive's metadata summary (what Inspect reports),
// built from the already-parsed header and footer.
func (a *Archive) Info() *ArchiveInfo { return a.meta.info() }

// Index returns the query planner's view of the archive — row groups and
// zone maps. The zone-map stats chunk is parsed on the first call and cached
// for the handle's lifetime; the returned index is shared and must not be
// mutated.
func (a *Archive) Index() (*ArchiveIndex, error) {
	a.idxOnce.Do(func() {
		a.idx, a.idxErr = a.meta.index()
	})
	return a.idx, a.idxErr
}

// errBatchArchive refuses a streaming batch archive to every reader but
// DecompressBatch: its decoder section is the hash of a separate model
// archive's.
var errBatchArchive = fmt.Errorf("%w: streaming batch archive needs its model archive (use DecompressBatch)", ErrCorrupt)

// decoders inflates and parses the archive's decoder section on first call
// and caches the parsed experts, their weights packed — the open-once
// amortization that makes a warm handle cheap to query. Decoders are read-only
// during inference (its memory is the caller's), so the cached slice is
// shared across concurrent requests. An archive carrying flagFloat32 also
// gets the experts' float32 views, which its decode runs through; nil
// otherwise.
func (a *Archive) decoders() ([]*nn.Decoder, []*nn.Decoder32, error) {
	a.decOnce.Do(func() {
		m := a.meta
		if !m.hasModel {
			return // no model columns: callers gate on needModel
		}
		if m.flags&flagExternalModel != 0 {
			a.decErr = errBatchArchive
			return
		}
		a.decs, a.decErr = parseCheckedDecoders(m.decoderChunk, m.numExperts, m.codeSize, m.layout.specs)
		a.decs32 = m.narrow(a.decs)
	})
	return a.decs, a.decs32, a.decErr
}

// Decompress reconstructs the table (or the projection opts selects) against
// the open handle. See DecompressContext.
func (a *Archive) Decompress(opts DecompressOptions) (*DecompressResult, error) {
	return a.decompress(context.Background(), opts)
}

// DecompressContext runs one decompression request against the open handle:
// the stages reuse the handle's parsed metadata and cached decoders, so a
// warm handle pays only for the rows and columns the request actually
// touches. Concurrent requests against one handle are safe and independent.
func (a *Archive) DecompressContext(ctx context.Context, opts DecompressOptions) (*DecompressResult, error) {
	return a.decompress(ctx, opts)
}
