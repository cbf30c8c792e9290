package core

import (
	"fmt"

	"deepsqueeze/internal/codec"
)

// StreamStat aggregates one logical stream's chunks across every row group:
// which codecs the best-of selector chose, the framed (compressed) bytes,
// and the stored-form bytes the frames decode to — the denominator that
// makes per-column ratio wins attributable. Streams are keyed by schema
// column plus stream kind; the code dimensions and the expert mapping have
// no column and report with an empty Column.
type StreamStat struct {
	// Column is the schema column name; empty for the code and mapping
	// streams, which span all model columns.
	Column string
	// Stream names the stream kind: "codes", "mapping", "failures",
	// "exceptions", "mask", "values", "fallback", or "trivial".
	Stream string
	// Chunks counts archive chunks aggregated into this stat.
	Chunks int
	// Codecs histograms the per-chunk codec choice (frame-tag name → count).
	Codecs map[string]int
	// FrameBytes is the total framed size as stored in the archive.
	FrameBytes int64
	// RawBytes is the total stored-form size: what the stream would occupy
	// with compression disabled (the codec layer's tag-0 form). The
	// FrameBytes/RawBytes ratio is each codec's win on this stream.
	RawBytes int64
}

// streamAcc accumulates per-(column, stream) stats in first-seen order.
type streamAcc struct {
	order []string
	stats map[string]*StreamStat
}

func newStreamAcc() *streamAcc {
	return &streamAcc{stats: make(map[string]*StreamStat)}
}

func (a *streamAcc) at(column, stream string) *StreamStat {
	key := column + "\x00" + stream
	st, ok := a.stats[key]
	if !ok {
		st = &StreamStat{Column: column, Stream: stream, Codecs: make(map[string]int)}
		a.stats[key] = st
		a.order = append(a.order, key)
	}
	return st
}

// add classifies one chunk of stream kind into the (column, kind) stat.
func (a *streamAcc) add(column string, kind streamKind, frame []byte, count int) error {
	var fi codec.FrameInfo
	var err error
	if kindSpecs[kind].frame == frameInts {
		fi, err = codec.InspectInts(frame, count)
	} else {
		fi, err = codec.InspectBytes(frame)
	}
	if err != nil {
		return err
	}
	st := a.at(column, kindSpecs[kind].name)
	st.Chunks++
	st.Codecs[fi.Codec]++
	st.FrameBytes += fi.FrameBytes
	st.RawBytes += fi.RawBytes
	return nil
}

// addMapping classifies one mapping chunk. The labels form is a single
// integer frame; the grouped form is per-expert uvarint counts with nested
// index frames when row order is kept (no frames at all otherwise — those
// counts are their own raw form and contribute no codec tally).
func (a *streamAcc) addMapping(m *archiveMeta, mb []byte, count int) error {
	st := a.at("", "mapping")
	st.Chunks++
	st.FrameBytes += int64(len(mb))
	if m.flags&flagGrouped == 0 {
		fi, err := codec.InspectInts(mb, count)
		if err != nil {
			return err
		}
		st.Codecs[fi.Codec]++
		st.RawBytes += fi.RawBytes
		return nil
	}
	keepOrder := m.flags&flagRowOrder != 0
	r := &sectionReader{buf: mb}
	var frameBytes int64
	for e := 0; e < m.numExperts; e++ {
		cnt, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: truncated mapping", ErrCorrupt)
		}
		if cnt > uint64(count) {
			return fmt.Errorf("%w: mapping counts exceed rows", ErrCorrupt)
		}
		if !keepOrder {
			continue
		}
		frame, err := r.chunk()
		if err != nil {
			return err
		}
		fi, err := codec.InspectInts(frame, int(cnt))
		if err != nil {
			return err
		}
		st.Codecs[fi.Codec]++
		st.RawBytes += fi.RawBytes
		frameBytes += fi.FrameBytes
	}
	if err := r.done(); err != nil {
		return err
	}
	// The uvarint scaffolding around the nested frames is uncompressed:
	// count it identically on both sides of the ratio.
	st.RawBytes += int64(len(mb)) - frameBytes
	return nil
}

// collectGroupStreams walks one group body's chunk sequence — the same
// order scanGroupBody consumes — classifying every chunk. r must be
// positioned at the first code-dimension chunk; count is the group's rows.
func (m *archiveMeta) collectGroupStreams(r *sectionReader, count int, acc *streamAcc) error {
	if m.hasModel {
		for i := 0; i < m.codeSize; i++ {
			c, err := r.chunk()
			if err != nil {
				return err
			}
			if err := acc.add("", codeDim, c, count); err != nil {
				return err
			}
		}
	}
	if m.numExperts > 1 {
		c, err := r.chunk()
		if err != nil {
			return err
		}
		if err := acc.addMapping(m, c, count); err != nil {
			return err
		}
	}
	for col := range m.plan.Cols {
		name := m.plan.Schema.Columns[col].Name
		for _, e := range colStreams(m.plan, m.layout, col) {
			c, err := r.chunk()
			if err != nil {
				return err
			}
			if err := acc.add(name, e.kind, c, count); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamStats walks every row group's chunks and aggregates per-stream codec
// and size statistics. Unlike info(), this reads (and, for compressed
// frames, decodes) the segment payloads, so it costs a full scan — cheap
// next to a decompression, but not free.
func (m *archiveMeta) streamStats() ([]StreamStat, error) {
	acc := newStreamAcc()
	for _, g := range m.groups {
		// The group's plan override is opaque to stream accounting.
		_, body, _, err := m.segment(&sectionReader{buf: m.body, pos: int(g.off)}, g, true)
		if err == nil {
			err = m.collectGroupStreams(body, g.count, acc)
		}
		if err == nil {
			err = body.done()
		}
		if err != nil {
			return nil, corrupt(err)
		}
	}
	// First-seen order is walk order: codes, mapping, then plan-order
	// columns — stable across groups because every group repeats the same
	// chunk sequence.
	out := make([]StreamStat, 0, len(acc.order))
	for _, key := range acc.order {
		out = append(out, *acc.stats[key])
	}
	return out, nil
}

// InspectStreams parses an archive and reports per-stream codec choices and
// compressed-vs-raw sizes, aggregated across row groups. It decodes
// compressed frames to recover their stored-form sizes but never runs the
// model, so it is far cheaper than a decompression.
func InspectStreams(archive []byte) ([]StreamStat, error) {
	m, err := parseArchiveMeta(archive)
	if err != nil {
		return nil, err
	}
	return m.streamStats()
}

// StreamStats is InspectStreams against an open handle.
func (a *Archive) StreamStats() ([]StreamStat, error) {
	return a.meta.streamStats()
}
