package core

import (
	"context"
	"fmt"
	"sort"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/pipeline"
)

// ColumnBlock is one row group × column's decoded values, in the group's
// original row order. A block is immutable once built: the serve layer's
// decoded-block cache hands the same block to any number of concurrent
// queries, so neither the producer nor any consumer may write to its slices.
// Exactly one of Str (categorical columns) or Num (numeric columns) is
// non-nil, matching the column's schema type.
type ColumnBlock struct {
	Str []string
	Num []float64

	bytes int64
}

// Len returns the block's row count.
func (b *ColumnBlock) Len() int {
	if b.Str != nil {
		return len(b.Str)
	}
	return len(b.Num)
}

// Bytes returns the block's memory footprint estimate, the unit the serve
// layer's cache budget is accounted in: slice header plus 8 bytes per float,
// or slice header plus string header and payload bytes per string. Computed
// once at construction.
func (b *ColumnBlock) Bytes() int64 { return b.bytes }

// sliceHeaderBytes is the accounting cost of one slice header; stringHeaderBytes
// of one string header. Both follow the amd64/arm64 in-memory layout.
const (
	sliceHeaderBytes  = 24
	stringHeaderBytes = 16
)

// NumGroups returns the archive's row-group count (1 for a version-1
// archive), the group-index space DecodeBlocks addresses.
func (a *Archive) NumGroups() int { return len(a.meta.groups) }

// GroupRows returns row group g's row count.
func (a *Archive) GroupRows(g int) int { return a.meta.groups[g].count }

// DecodeFlags returns the archive's header flag byte — the per-archive plan
// flags (row order, grouping, zone maps, float32 decode) that determine how
// its bytes decode. Two archives with identical content but different flags
// decode differently, so block-cache keys include it.
func (a *Archive) DecodeFlags() byte { return a.meta.flags }

// DecodeBlocks decodes the selected columns of the selected row groups into
// immutable per-group, per-column blocks — the one primitive every block
// consumer (the query engine, the serve layer's cache misses) reads through.
// groups and cols must be strictly ascending; groups are archive group
// indexes (see NumGroups), cols schema column indexes. The returned slice is
// indexed [len(groups)][len(cols)], and every block's contents are
// byte-identical to the corresponding span of a full decompression: the
// request runs the same parse→scan→unpack→resolve→decode stages, restricted
// to the requested groups and columns, so unrequested groups' segments and
// unselected columns' streams are never read, and assemble writes each
// (group, column) once, straight into the block's own backing array. pool,
// when non-nil, bounds the decode over the caller's shared worker pool.
func (a *Archive) DecodeBlocks(ctx context.Context, groups []int, cols []int, pool *pipeline.Pool) ([][]*ColumnBlock, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: DecodeBlocks needs at least one group")
	}
	if pool == nil {
		pool = pipeline.NewPool(0)
	}
	return a.DecodeBlocksRun(pipeline.NewWithPool(ctx, pool), groups, cols)
}

// DecodeBlocksRun is DecodeBlocks over the caller's run: its context and
// pool bound the decode, and the decode's stages (parse … assemble, scan
// carrying the skipped-bytes counter) are recorded on it ahead of whatever
// stages the caller records next — how a query reports where its time went.
// An empty group list decodes nothing and still scans.
func (a *Archive) DecodeBlocksRun(run *pipeline.Run, groups []int, cols []int) ([][]*ColumnBlock, error) {
	ngroups := a.NumGroups()
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: DecodeBlocks needs at least one column")
	}
	mask := make([]bool, ngroups)
	for i, g := range groups {
		if g < 0 || g >= ngroups {
			return nil, fmt.Errorf("core: group %d outside [0,%d)", g, ngroups)
		}
		if i > 0 && g <= groups[i-1] {
			return nil, fmt.Errorf("core: groups must be strictly ascending")
		}
		mask[g] = true
	}
	schema := a.meta.plan.Schema
	names := make([]string, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(schema.Columns) {
			return nil, fmt.Errorf("core: column %d outside schema of %d columns", c, len(schema.Columns))
		}
		if i > 0 && c <= cols[i-1] {
			return nil, fmt.Errorf("core: columns must be strictly ascending")
		}
		names[i] = schema.Columns[c].Name
	}
	d, err := a.decodeStages(run, DecompressOptions{Columns: names}, mask)
	if err != nil {
		return nil, err
	}
	var out [][]*ColumnBlock
	err = run.Stage("assemble", func() (err error) {
		out, err = d.assembleBlocks()
		return err
	})
	return out, err
}

// assembleBlocks assembles every requested group's selected columns into
// blocks of their own, indexed [requested group][selected column]. Each
// block gets a fresh backing array — a span of a shared one would pin its
// neighbours and break the cache's per-block eviction accounting — and is
// charged for the string payloads it keeps alive.
func (d *decompressor) assembleBlocks() ([][]*ColumnBlock, error) {
	var out [][]*ColumnBlock
	rowOf := make([][]*ColumnBlock, len(d.groups))
	for gi, g := range d.groups {
		if !d.mask[gi] {
			continue
		}
		row := make([]*ColumnBlock, len(d.selCols))
		for ci, col := range d.selCols {
			if d.meta.plan.Schema.Columns[col].Type == dataset.Categorical {
				row[ci] = &ColumnBlock{Str: make([]string, g.count)}
			} else {
				row[ci] = &ColumnBlock{Num: make([]float64, g.count), bytes: sliceHeaderBytes + 8*int64(g.count)}
			}
		}
		rowOf[gi] = row
		out = append(out, row)
	}
	err := d.assemble(func(gi, ci int) ([]string, []float64) {
		b := rowOf[gi][ci]
		return b.Str, b.Num
	})
	if err != nil {
		return nil, err
	}
	for _, row := range out {
		for _, b := range row {
			if b.Str != nil {
				b.bytes = sliceHeaderBytes
				for _, s := range b.Str {
					b.bytes += stringHeaderBytes + int64(len(s))
				}
			}
		}
	}
	return out, nil
}

// SortedUnique sorts s ascending and drops duplicates in place — the shape
// DecodeBlocks requires for its group and column lists.
func SortedUnique(s []int) []int {
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
