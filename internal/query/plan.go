package query

import (
	"fmt"
	"math"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/preprocess"
)

// bnode is a bound predicate node: column names resolved to schema indexes,
// literals type-checked against the column, and (for leaves) the column's
// stored plan attached for encoded-domain zone translation.
type bnode struct {
	kind byte // nAnd, nOr, nNot, nCmp, nIn
	kids []bnode

	// Leaf fields.
	col   int
	isStr bool
	cp    *preprocess.ColPlan
	op    CmpOp
	sval  string
	fval  float64
	sset  map[string]struct{} // nIn, categorical
	fvals []float64           // nIn, numeric, ascending
}

const (
	nAnd byte = iota
	nOr
	nNot
	nCmp
	nIn
)

// bound is a predicate compiled against one archive's plan.
type bound struct {
	root bnode
	cols []int // distinct referenced schema column indexes, ascending
}

// bind resolves and type-checks a predicate against the archive's stored
// plan. Range operators on categorical columns are rejected: the on-disk
// dictionary is frequency-ordered, so no lexicographic order survives
// encoding, and silently comparing strings would not match user intuition
// about pruning.
func bind(p Pred, plan *preprocess.Plan) (*bound, error) {
	b := &bound{}
	seen := map[int]bool{}
	var walk func(p Pred) (bnode, error)
	leafCol := func(name string) (int, *preprocess.ColPlan, bool, error) {
		for i, c := range plan.Schema.Columns {
			if c.Name == name {
				if !seen[i] {
					seen[i] = true
					b.cols = append(b.cols, i)
				}
				return i, &plan.Cols[i], c.Type == dataset.Categorical, nil
			}
		}
		return 0, nil, false, fmt.Errorf("query: unknown column %q", name)
	}
	checkLit := func(col string, v lit, isStr bool) error {
		if v.bad != "" {
			return fmt.Errorf("query: unsupported literal type %s for column %q", v.bad, col)
		}
		if v.isStr != isStr {
			if isStr {
				return fmt.Errorf("query: column %q is categorical; compare it to a quoted string", col)
			}
			return fmt.Errorf("query: column %q is numeric; compare it to a number", col)
		}
		return nil
	}
	walk = func(p Pred) (bnode, error) {
		switch q := p.(type) {
		case cmpPred:
			idx, cp, isStr, err := leafCol(q.col)
			if err != nil {
				return bnode{}, err
			}
			if err := checkLit(q.col, q.val, isStr); err != nil {
				return bnode{}, err
			}
			if isStr && q.op != OpEq {
				return bnode{}, fmt.Errorf("query: operator %s not supported on categorical column %q (use =, !=, or IN)", q.op, q.col)
			}
			return bnode{kind: nCmp, col: idx, isStr: isStr, cp: cp, op: q.op, sval: q.val.s, fval: q.val.f}, nil
		case inPred:
			if len(q.vals) == 0 {
				return bnode{}, fmt.Errorf("query: empty IN list for column %q", q.col)
			}
			idx, cp, isStr, err := leafCol(q.col)
			if err != nil {
				return bnode{}, err
			}
			n := bnode{kind: nIn, col: idx, isStr: isStr, cp: cp}
			for _, v := range q.vals {
				if err := checkLit(q.col, v, isStr); err != nil {
					return bnode{}, err
				}
			}
			if isStr {
				n.sset = make(map[string]struct{}, len(q.vals))
				for _, v := range q.vals {
					n.sset[v.s] = struct{}{}
				}
			} else {
				n.fvals = sortedFloats(q.vals)
			}
			return n, nil
		case andPred:
			n := bnode{kind: nAnd, kids: make([]bnode, len(q.kids))}
			for i, k := range q.kids {
				kid, err := walk(k)
				if err != nil {
					return bnode{}, err
				}
				n.kids[i] = kid
			}
			return n, nil
		case orPred:
			n := bnode{kind: nOr, kids: make([]bnode, len(q.kids))}
			for i, k := range q.kids {
				kid, err := walk(k)
				if err != nil {
					return bnode{}, err
				}
				n.kids[i] = kid
			}
			return n, nil
		case notPred:
			kid, err := walk(q.kid)
			if err != nil {
				return bnode{}, err
			}
			return bnode{kind: nNot, kids: []bnode{kid}}, nil
		}
		return bnode{}, fmt.Errorf("query: unknown predicate type %T", p)
	}
	root, err := walk(p)
	if err != nil {
		return nil, err
	}
	b.root = root
	return b, nil
}

// mayMatch reports whether a row group with the given per-column zones could
// contain a matching row. It must never return false for a group that holds
// a match (soundness); returning true for a group that doesn't is merely a
// missed pruning opportunity. neg tracks negation context: under NOT, De
// Morgan swaps the And/Or combination and leaves flip to their complements.
func (b *bound) mayMatch(zones []core.ZoneMap) bool {
	return b.root.mayMatch(zones, false)
}

func (n *bnode) mayMatch(zones []core.ZoneMap, neg bool) bool {
	switch n.kind {
	case nAnd:
		if neg { // NOT(a AND b) = NOT a OR NOT b
			for i := range n.kids {
				if n.kids[i].mayMatch(zones, true) {
					return true
				}
			}
			return false // includes NOT(empty AND): constant false, no row matches
		}
		for i := range n.kids {
			if !n.kids[i].mayMatch(zones, false) {
				return false
			}
		}
		return true
	case nOr:
		if neg { // NOT(a OR b) = NOT a AND NOT b
			for i := range n.kids {
				if !n.kids[i].mayMatch(zones, true) {
					return false
				}
			}
			return true
		}
		for i := range n.kids {
			if n.kids[i].mayMatch(zones, false) {
				return true
			}
		}
		return false
	case nNot:
		return n.kids[0].mayMatch(zones, !neg)
	case nCmp, nIn:
		return n.leafMayMatch(&zones[n.col], neg)
	}
	return true
}

// leafMayMatch is the per-leaf zone test. For numeric columns the zone is
// translated to a closed interval [lo, hi] of decoded values; for
// categorical columns the bitmap (or dictionary-code range) answers
// membership directly.
func (n *bnode) leafMayMatch(z *core.ZoneMap, neg bool) bool {
	if z.Kind == core.ZoneNone {
		return true
	}
	if n.isStr {
		return n.catMayMatch(z, neg)
	}
	lo, hi, ok := zoneInterval(z, n.cp)
	if !ok {
		return true
	}
	if n.kind == nIn {
		if !neg {
			for _, f := range n.fvals {
				if f >= lo && f <= hi {
					return true
				}
			}
			return false
		}
		// NOT IN can only be pruned when the zone pins every row to a single
		// value that the list contains.
		if lo == hi {
			for _, f := range n.fvals {
				if f == lo {
					return false
				}
			}
		}
		return true
	}
	v := n.fval
	op := n.op
	if neg {
		// Complement: NOT(x = v) prunes only a single-valued zone equal to v;
		// the range operators flip.
		switch op {
		case OpEq:
			return !(lo == v && hi == v)
		case OpLt:
			op = OpGe
		case OpLe:
			op = OpGt
		case OpGt:
			op = OpLe
		case OpGe:
			op = OpLt
		}
	}
	switch op {
	case OpEq:
		return v >= lo && v <= hi
	case OpLt: // some row < v
		return lo < v
	case OpLe:
		return lo <= v
	case OpGt: // some row > v
		return hi > v
	case OpGe:
		return hi >= v
	}
	return true
}

// catMayMatch answers membership questions against a categorical zone. The
// bitmap carries one bit per dictionary code plus an overflow bit for values
// outside the training dictionary (escape rows decode to their raw text, so
// an out-of-dictionary literal can still match a row under the overflow
// bit). The int-range form is only written when every group value is in the
// dictionary.
func (n *bnode) catMayMatch(z *core.ZoneMap, neg bool) bool {
	dict := n.cp.Dict
	if dict == nil {
		return true
	}
	// hasValue: could some row equal s? onlyValue: is every row pinned to s?
	hasValue := func(s string) bool {
		c, ok := dict.Code(s)
		switch z.Kind {
		case core.ZoneBitmap:
			if !ok {
				c = dict.Len() // overflow bit
			}
			return z.Bit(c)
		case core.ZoneIntRange:
			return ok && int64(c) >= z.Min && int64(c) <= z.Max
		}
		return true
	}
	onlyValue := func(s string) bool {
		c, ok := dict.Code(s)
		if !ok {
			// Out-of-dictionary rows are only distinguishable via the
			// overflow bit, which lumps all unseen values together: never
			// provable that every row equals this exact string.
			return false
		}
		switch z.Kind {
		case core.ZoneBitmap:
			if !z.Bit(c) || z.Bit(dict.Len()) {
				return false
			}
			for i := 0; i < dict.Len(); i++ {
				if i != c && z.Bit(i) {
					return false
				}
			}
			return true
		case core.ZoneIntRange:
			return z.Min == z.Max && int64(c) == z.Min
		}
		return false
	}
	if n.kind == nCmp { // OpEq only (bind rejects ranges on categoricals)
		if !neg {
			return hasValue(n.sval)
		}
		return !onlyValue(n.sval)
	}
	// nIn
	if !neg {
		for s := range n.sset {
			if hasValue(s) {
				return true
			}
		}
		return false
	}
	// NOT IN prunes only when every possible group value is in the list:
	// overflow unset and every set dictionary bit's value listed.
	if z.Kind != core.ZoneBitmap || z.Bit(dict.Len()) {
		return true
	}
	for i := 0; i < dict.Len(); i++ {
		if !z.Bit(i) {
			continue
		}
		if _, listed := n.sset[dict.Value(i)]; !listed {
			return true
		}
	}
	return false
}

// zoneInterval translates a numeric zone into the closed interval [lo, hi]
// that bounds the column's decoded values in the group. Encoded-domain
// bounds go through the stored plan: quantized buckets decode to
// Unscale(Midpoint(b)) and value-dictionary ranks to their dictionary entry,
// both monotone in the code, so the endpoint decodes bound the whole group.
func zoneInterval(z *core.ZoneMap, cp *preprocess.ColPlan) (lo, hi float64, ok bool) {
	switch z.Kind {
	case core.ZoneFloatRange:
		return z.FMin, z.FMax, true
	case core.ZoneIntRange:
		switch cp.Kind {
		case preprocess.KindNumQuant:
			lo = cp.Scaler.Unscale(cp.Quant.Midpoint(int(z.Min)))
			hi = cp.Scaler.Unscale(cp.Quant.Midpoint(int(z.Max)))
			if lo > hi { // a degenerate scaler can collapse the order
				lo, hi = hi, lo
			}
			return lo, hi, true
		case preprocess.KindNumDict:
			return cp.VDict.Value(int(z.Min)), cp.VDict.Value(int(z.Max)), true
		}
	}
	return math.Inf(-1), math.Inf(1), false
}
