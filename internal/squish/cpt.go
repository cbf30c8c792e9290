package squish

import (
	"encoding/binary"
	"fmt"
	"sort"

	"deepsqueeze/internal/rangecoder"
)

// Conditional probability tables. The published Squish learns its Bayesian
// network and parameters up front, ships the model inside the compressed
// output, and arithmetic-codes against those *static* probabilities — it
// does not adapt during coding. We reproduce that: per column, a quantized
// marginal table plus quantized tables for the most frequent parent
// configurations (the long tail of rare configurations falls back to the
// marginal, bounding model size the way Squish's model-cost term does).

// maxStoredConfigs bounds the per-column number of stored parent
// configurations.
const maxStoredConfigs = 4096

// cpt is one quantized frequency table over a column's alphabet.
// Frequencies are 1..255 (never zero: every symbol stays encodable).
type cpt struct {
	freq []uint16
	cum  []uint16 // cumulative, len = len(freq)+1
	tot  uint32
}

// newCPT quantizes raw counts into a table. Every symbol gets frequency ≥ 1
// (Laplace smoothing); the total is kept within the range coder's budget.
func newCPT(counts []int, alphabet int) *cpt {
	maxCount := 1
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	// Scale the largest count to 255; keep totals within the coder limit.
	limit := 255
	if alphabet*256 > int(rangecoder.MaxTotal) {
		limit = int(rangecoder.MaxTotal)/alphabet - 1
		if limit < 1 {
			limit = 1
		}
	}
	t := &cpt{freq: make([]uint16, alphabet)}
	for s := 0; s < alphabet; s++ {
		f := 1
		if s < len(counts) && counts[s] > 0 {
			f = 1 + counts[s]*(limit-1)/maxCount
		}
		t.freq[s] = uint16(f)
	}
	t.finish()
	return t
}

func (t *cpt) finish() {
	t.cum = make([]uint16, len(t.freq)+1)
	var acc uint32
	for s, f := range t.freq {
		t.cum[s] = uint16(acc)
		acc += uint32(f)
	}
	t.cum[len(t.freq)] = uint16(acc)
	t.tot = acc
}

// encode writes symbol s with the table's static statistics.
func (t *cpt) encode(e *rangecoder.Encoder, s int) {
	e.Encode(uint32(t.cum[s]), uint32(t.freq[s]), t.tot)
}

// decode reads one symbol.
func (t *cpt) decode(d *rangecoder.Decoder) int {
	target := d.DecodeFreq(t.tot)
	// Binary search the cumulative table.
	s := sort.Search(len(t.freq), func(i int) bool { return uint32(t.cum[i+1]) > target })
	d.Update(uint32(t.cum[s]), uint32(t.freq[s]))
	return s
}

// appendBinary serializes the frequency table (freq-1 fits a byte when the
// limit is 255; larger alphabets shrink the limit accordingly, so a byte
// always suffices).
func (t *cpt) appendBinary(dst []byte) []byte {
	for _, f := range t.freq {
		if f < 1 || f > 256 {
			panic(fmt.Sprintf("squish: cpt frequency %d out of byte range", f))
		}
		dst = append(dst, byte(f-1))
	}
	return dst
}

// decodeCPT parses a table for the given alphabet and returns bytes used.
func decodeCPT(buf []byte, alphabet int) (*cpt, int, error) {
	if len(buf) < alphabet {
		return nil, 0, fmt.Errorf("%w: truncated CPT", ErrCorrupt)
	}
	t := &cpt{freq: make([]uint16, alphabet)}
	for s := 0; s < alphabet; s++ {
		t.freq[s] = uint16(buf[s]) + 1
	}
	t.finish()
	return t, alphabet, nil
}

// colModel is one column's stored model: marginal table plus tables for
// frequent parent configurations (keyed by mixed-radix parent code index).
type colModel struct {
	marginal *cpt
	byConfig map[uint64]*cpt
}

// table returns the CPT for a parent configuration.
func (m *colModel) table(key uint64) *cpt {
	if t, ok := m.byConfig[key]; ok {
		return t
	}
	return m.marginal
}

// configKey combines parent codes into a mixed-radix index. Both sides
// compute it from already-(de)coded parent values of the same row.
func configKey(parents []int, alpha map[int]int, codes map[int][]int, r int) uint64 {
	var key uint64
	for _, p := range parents {
		key = key*uint64(alpha[p]) + uint64(codes[p][r])
	}
	return key
}

// learnCPTs counts symbol frequencies per parent configuration over the
// whole table and keeps the most frequent configurations.
func learnCPTs(rows int, cols []int, parents map[int][]int, alpha map[int]int, codes map[int][]int) map[int]*colModel {
	models := make(map[int]*colModel, len(cols))
	for _, c := range cols {
		a := alpha[c]
		marg := make([]int, a)
		confCounts := make(map[uint64][]int)
		confTotal := make(map[uint64]int)
		for r := 0; r < rows; r++ {
			v := codes[c][r]
			marg[v]++
			if len(parents[c]) == 0 {
				continue
			}
			key := configKey(parents[c], alpha, codes, r)
			cc, ok := confCounts[key]
			if !ok {
				cc = make([]int, a)
				confCounts[key] = cc
			}
			cc[v]++
			confTotal[key]++
		}
		m := &colModel{marginal: newCPT(marg, a), byConfig: make(map[uint64]*cpt)}
		if len(confCounts) > 0 {
			keys := make([]uint64, 0, len(confCounts))
			for k := range confCounts {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if confTotal[keys[i]] != confTotal[keys[j]] {
					return confTotal[keys[i]] > confTotal[keys[j]]
				}
				return keys[i] < keys[j]
			})
			if len(keys) > maxStoredConfigs {
				keys = keys[:maxStoredConfigs]
			}
			for _, k := range keys {
				m.byConfig[k] = newCPT(confCounts[k], a)
			}
		}
		models[c] = m
	}
	return models
}

// appendModels serializes all column models in cols order.
func appendModels(dst []byte, cols []int, models map[int]*colModel) []byte {
	for _, c := range cols {
		m := models[c]
		dst = m.marginal.appendBinary(dst)
		keys := make([]uint64, 0, len(m.byConfig))
		for k := range m.byConfig {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		prev := uint64(0)
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, k-prev) // delta-coded keys
			prev = k
			dst = m.byConfig[k].appendBinary(dst)
		}
	}
	return dst
}

// decodeModels parses the model block.
func decodeModels(buf []byte, cols []int, alpha map[int]int) (map[int]*colModel, int, error) {
	models := make(map[int]*colModel, len(cols))
	pos := 0
	for _, c := range cols {
		a := alpha[c]
		if a < 0 {
			return nil, 0, fmt.Errorf("%w: column %d alphabet %d", ErrCorrupt, c, a)
		}
		// a == 0 only occurs for empty tables, whose model block is empty.
		marg, used, err := decodeCPT(buf[pos:], a)
		if err != nil {
			return nil, 0, err
		}
		pos += used
		nConf, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 || nConf > maxStoredConfigs {
			return nil, 0, fmt.Errorf("%w: CPT config count", ErrCorrupt)
		}
		pos += sz
		m := &colModel{marginal: marg, byConfig: make(map[uint64]*cpt, nConf)}
		key := uint64(0)
		for i := uint64(0); i < nConf; i++ {
			d, sz := binary.Uvarint(buf[pos:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("%w: CPT config key", ErrCorrupt)
			}
			pos += sz
			key += d
			t, used, err := decodeCPT(buf[pos:], a)
			if err != nil {
				return nil, 0, err
			}
			pos += used
			m.byConfig[key] = t
		}
		models[c] = m
	}
	return models, pos, nil
}
