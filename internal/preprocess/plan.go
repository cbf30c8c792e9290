package preprocess

import (
	"encoding/binary"
	"fmt"
	"math"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/resbit"
)

// ColKind classifies how a column travels through the pipeline.
type ColKind byte

const (
	// KindCatModel is a categorical column predicted through the shared
	// softmax output layer.
	KindCatModel ColKind = iota
	// KindBinary is a two-valued categorical column predicted by a single
	// sigmoid node, with XOR-materialized failures.
	KindBinary
	// KindNumQuant is a numeric column quantized under an error threshold
	// and regressed with MSE.
	KindNumQuant
	// KindNumDict is a lossless numeric column with few distinct values,
	// regressed against the value's rank in a sorted dictionary.
	KindNumDict
	// KindFallbackCat is a high-cardinality categorical column excluded
	// from the model and stored directly (paper §4.1).
	KindFallbackCat
	// KindFallbackNum is a lossless numeric column with too many distinct
	// values to dictionary-encode; stored directly.
	KindFallbackNum
	// KindNumContinuous is the paper's §4.2 alternative to quantization
	// (the Fig. 7 "no quantization" ablation): the model regresses the
	// scaled value directly, predictions within the threshold are accepted
	// as-is, and mispredictions are materialized at full precision.
	KindNumContinuous
	// KindCatResidual is a high-cardinality categorical column kept inside
	// the model as ResDigits stacked base-ModelCard residual digits
	// (ResBit): the dictionary rank factors into small digits, each with
	// its own softmax head and its own rank-of-prediction failure stream.
	// Digits recompose exactly, so round-trips stay lossless and the
	// recomposed rank keeps ordinary dictionary (and zone-map) semantics.
	KindCatResidual
)

// String names the kind.
func (k ColKind) String() string {
	switch k {
	case KindCatModel:
		return "categorical"
	case KindBinary:
		return "binary"
	case KindNumQuant:
		return "quantized"
	case KindNumDict:
		return "numdict"
	case KindFallbackCat:
		return "fallback-categorical"
	case KindFallbackNum:
		return "fallback-numeric"
	case KindNumContinuous:
		return "continuous"
	case KindCatResidual:
		return "residual"
	default:
		return fmt.Sprintf("colkind(%d)", byte(k))
	}
}

// InModel reports whether the column participates in the autoencoder.
func (k ColKind) InModel() bool { return k != KindFallbackCat && k != KindFallbackNum }

// Options controls preprocessing decisions.
type Options struct {
	// MaxModelCardinality caps the categorical alphabet the model predicts;
	// rarer values become escape failures. The shared output layer is sized
	// by the largest per-column alphabet, so this bounds model size.
	MaxModelCardinality int
	// SkewCoverage is the fraction of a column's occurrences the model
	// alphabet must cover before rarer values are dropped from training.
	SkewCoverage float64
	// FallbackMaxDistinct excludes categorical columns with more distinct
	// values than this from the model entirely.
	FallbackMaxDistinct int
	// FallbackDistinctRatio excludes categorical columns whose distinct
	// count exceeds this fraction of the row count (near-unique keys).
	FallbackDistinctRatio float64
	// MaxValueDictLen bounds the distinct count for lossless numeric
	// dictionary handling; above it the column falls back to direct storage.
	MaxValueDictLen int
	// NoQuantization disables error-threshold quantization: lossy numeric
	// columns become KindNumContinuous (the paper's Fig. 7 ablation).
	NoQuantization bool
	// ResidualCats routes categorical columns whose alphabet exceeds
	// MaxModelCardinality through residual digits (KindCatResidual)
	// instead of into the colfile fallback. Near-unique columns (see
	// FallbackDistinctRatio) still fall back: a column with no value reuse
	// has no structure for the model to learn.
	ResidualCats bool
	// ResidualHeadroom inflates the cardinality used to choose a residual
	// digit layout, as a multiplier on the observed distinct count.
	// Residual digits have no escape path, so a plan fitted on a pilot
	// sample — the streaming writer trains on its first chunk — needs the
	// layout to cover alphabets later batches may grow. Values <= 1 size
	// the layout exactly (the in-memory compressor sees the whole table
	// and needs no slack); NewArchiveWriter defaults it to 2.
	ResidualHeadroom float64
}

// DefaultOptions mirrors the behaviour described in the paper.
func DefaultOptions() Options {
	return Options{
		MaxModelCardinality:   256,
		SkewCoverage:          0.95,
		FallbackMaxDistinct:   65536,
		FallbackDistinctRatio: 0.5,
		MaxValueDictLen:       4096,
	}
}

// ColPlan is the per-column preprocessing decision plus fitted parameters.
type ColPlan struct {
	Kind      ColKind
	Threshold float64 // numeric error threshold (fraction of range), 0 = lossless

	Dict   *Dictionary  // categorical kinds
	VDict  *ValueDict   // KindNumDict
	Scaler MinMaxScaler // KindNumQuant
	Quant  Quantizer    // KindNumQuant

	// ModelCard is the size of the alphabet the model predicts for this
	// column: dictionary prefix size for categoricals, bucket count for
	// quantized numerics, value-dict size for KindNumDict, 2 for binary,
	// and the per-digit base for KindCatResidual.
	ModelCard int

	// ResDigits is the residual digit count for KindCatResidual (0
	// otherwise): the column occupies ResDigits consecutive model heads,
	// each over a base-ModelCard alphabet.
	ResDigits int
}

// ResLayout returns the residual digit layout of a KindCatResidual column.
func (cp *ColPlan) ResLayout() resbit.Layout {
	return resbit.Layout{Base: cp.ModelCard, Digits: cp.ResDigits}
}

// Plan is a fitted preprocessor for one table schema.
type Plan struct {
	Schema *dataset.Schema
	Cols   []ColPlan
}

// Fit analyses the table and chooses a per-column plan. thresholds gives the
// relative error threshold for each schema column (ignored for categorical
// columns; 0 means lossless).
func Fit(t *dataset.Table, opts Options, thresholds []float64) (*Plan, error) {
	if len(thresholds) != 0 && len(thresholds) != t.Schema.NumColumns() {
		return nil, fmt.Errorf("preprocess: %d thresholds for %d columns", len(thresholds), t.Schema.NumColumns())
	}
	p := &Plan{Schema: t.Schema, Cols: make([]ColPlan, t.Schema.NumColumns())}
	for i, c := range t.Schema.Columns {
		thr := 0.0
		if len(thresholds) > 0 {
			thr = thresholds[i]
		}
		if thr < 0 || thr > 0.5 {
			return nil, fmt.Errorf("preprocess: column %q threshold %v outside [0, 0.5]", c.Name, thr)
		}
		var cp ColPlan
		var err error
		if c.Type == dataset.Categorical {
			cp, err = fitCategorical(t.Str[i], opts)
		} else {
			cp, err = fitNumeric(t.Num[i], opts, thr)
		}
		if err != nil {
			return nil, fmt.Errorf("preprocess: column %q: %w", c.Name, err)
		}
		p.Cols[i] = cp
	}
	return p, nil
}

func fitCategorical(col []string, opts Options) (ColPlan, error) {
	dict := BuildDictionary(col)
	d := dict.Len()
	nearUnique := len(col) > 0 && float64(d) > opts.FallbackDistinctRatio*float64(len(col))
	if opts.ResidualCats && !nearUnique && d > opts.MaxModelCardinality {
		// Residual digits: the whole alphabet enters the model as stacked
		// small heads, rescuing both the escape-heavy range above
		// MaxModelCardinality and the outright fallback range above
		// FallbackMaxDistinct. Near-unique columns stay fallback — with no
		// value reuse there is nothing for the model to learn.
		target := d
		if opts.ResidualHeadroom > 1 {
			target = int(math.Ceil(float64(d) * opts.ResidualHeadroom))
		}
		l := resbit.For(target)
		return ColPlan{Kind: KindCatResidual, Dict: dict, ModelCard: l.Base, ResDigits: l.Digits}, nil
	}
	if d > opts.FallbackMaxDistinct || nearUnique {
		return ColPlan{Kind: KindFallbackCat, Dict: dict}, nil
	}
	if d == 2 {
		return ColPlan{Kind: KindBinary, Dict: dict, ModelCard: 2}, nil
	}
	card := d
	if card > opts.MaxModelCardinality {
		card = opts.MaxModelCardinality
	}
	// Skew handling: shrink the alphabet to the smallest frequency-sorted
	// prefix covering SkewCoverage of occurrences (codes are
	// frequency-ordered, so a prefix is exactly the most frequent values).
	if opts.SkewCoverage > 0 && opts.SkewCoverage < 1 && len(col) > 0 {
		counts := make([]int, d)
		for _, v := range col {
			c, _ := dict.Code(v)
			counts[c]++
		}
		covered, need := 0, int(math.Ceil(opts.SkewCoverage*float64(len(col))))
		for k := 0; k < card; k++ {
			covered += counts[k]
			if covered >= need {
				card = k + 1
				break
			}
		}
	}
	if card < 1 {
		card = 1
	}
	return ColPlan{Kind: KindCatModel, Dict: dict, ModelCard: card}, nil
}

func fitNumeric(col []float64, opts Options, thr float64) (ColPlan, error) {
	for _, v := range col {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ColPlan{}, fmt.Errorf("non-finite value %v", v)
		}
	}
	if thr > 0 {
		scaler := FitMinMax(col)
		if opts.NoQuantization {
			return ColPlan{Kind: KindNumContinuous, Threshold: thr, Scaler: scaler}, nil
		}
		q, err := NewQuantizer(thr)
		if err != nil {
			return ColPlan{}, err
		}
		return ColPlan{Kind: KindNumQuant, Threshold: thr, Scaler: scaler, Quant: q, ModelCard: q.NumBucket}, nil
	}
	vd := BuildValueDict(col)
	if vd.Len() <= opts.MaxValueDictLen {
		return ColPlan{Kind: KindNumDict, VDict: vd, ModelCard: vd.Len()}, nil
	}
	return ColPlan{Kind: KindFallbackNum}, nil
}

// NumModelColumns counts columns that participate in the model.
func (p *Plan) NumModelColumns() int {
	n := 0
	for _, c := range p.Cols {
		if c.Kind.InModel() {
			n++
		}
	}
	return n
}

// ModelColumnIndexes returns schema indexes of model columns in order.
func (p *Plan) ModelColumnIndexes() []int {
	var out []int
	for i, c := range p.Cols {
		if c.Kind.InModel() {
			out = append(out, i)
		}
	}
	return out
}

// Encode maps a model column's raw values to its integer code stream:
// dictionary codes, bucket indexes, or value ranks.
func (p *Plan) Encode(t *dataset.Table, col int) ([]int, error) {
	cp := &p.Cols[col]
	switch cp.Kind {
	case KindCatModel, KindBinary, KindFallbackCat, KindCatResidual:
		return cp.Dict.Encode(t.Str[col])
	case KindNumQuant:
		out := make([]int, t.NumRows())
		for r, v := range t.Num[col] {
			out[r] = cp.Quant.Bucket(cp.Scaler.Scale(v))
		}
		return out, nil
	case KindNumDict:
		out := make([]int, t.NumRows())
		for r, v := range t.Num[col] {
			rank, ok := cp.VDict.Rank(v)
			if !ok {
				return nil, fmt.Errorf("preprocess: value %v not in value dictionary of column %d", v, col)
			}
			out[r] = rank
		}
		return out, nil
	default:
		return nil, fmt.Errorf("preprocess: column %d kind %v has no integer encoding", col, cp.Kind)
	}
}

// DecodeColumn reconstructs a column's values from its integer codes into
// the destination table column.
func (p *Plan) DecodeColumn(dst *dataset.Table, col int, codes []int) error {
	var str []string
	var num []float64
	if p.Schema.Columns[col].Type == dataset.Categorical {
		str = make([]string, len(codes))
	} else {
		num = make([]float64, len(codes))
	}
	if err := p.DecodeInto(col, codes, str, num); err != nil {
		return err
	}
	if str != nil {
		dst.Str[col] = str
	} else {
		dst.Num[col] = num
	}
	return nil
}

// DecodeInto reconstructs a column's values from its integer codes into the
// caller's slice: str for a categorical column, num for a numeric one, at
// least len(codes) long either way; the other may be nil. Value i is the
// decoding of codes[i].
func (p *Plan) DecodeInto(col int, codes []int, str []string, num []float64) error {
	cp := &p.Cols[col]
	switch cp.Kind {
	case KindCatModel, KindBinary, KindFallbackCat, KindCatResidual:
		return cp.Dict.decodeInto(str, codes)
	case KindNumQuant:
		num = num[:len(codes)]
		for i, c := range codes {
			if c < 0 || c >= cp.Quant.NumBucket {
				return fmt.Errorf("preprocess: bucket %d outside [0,%d)", c, cp.Quant.NumBucket)
			}
			num[i] = cp.Scaler.Unscale(cp.Quant.Midpoint(c))
		}
	case KindNumDict:
		num = num[:len(codes)]
		for i, c := range codes {
			if c < 0 || c >= cp.VDict.Len() {
				return fmt.Errorf("preprocess: rank %d outside [0,%d)", c, cp.VDict.Len())
			}
			num[i] = cp.VDict.Value(c)
		}
	default:
		return fmt.Errorf("preprocess: column %d kind %v has no integer decoding", col, cp.Kind)
	}
	return nil
}

// InputValue maps a column's integer code to the [0,1] value fed to the
// model's input node for that column (paper §5.3: one input node per column
// regardless of type).
func (p *Plan) InputValue(col, code int) float64 {
	cp := &p.Cols[col]
	switch cp.Kind {
	case KindCatModel:
		c := code
		if c >= cp.ModelCard {
			c = cp.ModelCard - 1 // rare value: clamp for the input side
		}
		if cp.ModelCard <= 1 {
			return 0
		}
		return float64(c) / float64(cp.ModelCard-1)
	case KindBinary:
		return float64(code)
	case KindNumQuant:
		return cp.Quant.Midpoint(code)
	case KindNumDict:
		if cp.VDict.Len() <= 1 {
			return 0
		}
		return float64(code) / float64(cp.VDict.Len()-1)
	default:
		panic(fmt.Sprintf("preprocess: InputValue on %v column", cp.Kind))
	}
}

// ScaleColumn returns a numeric column min-max scaled to [0,1], for
// KindNumContinuous columns (which have no integer encoding).
func (p *Plan) ScaleColumn(t *dataset.Table, col int) []float64 {
	cp := &p.Cols[col]
	out := make([]float64, t.NumRows())
	for r, v := range t.Num[col] {
		out[r] = cp.Scaler.Scale(v)
	}
	return out
}

// Tolerances returns the per-schema-column absolute error tolerances implied
// by the plan: threshold × range for lossy columns, 0 elsewhere. Used to
// audit the error-bound guarantee after decompression.
func (p *Plan) Tolerances() []float64 {
	out := make([]float64, len(p.Cols))
	for i, c := range p.Cols {
		if c.Kind == KindNumQuant || c.Kind == KindNumContinuous {
			out[i] = c.Threshold * c.Scaler.Range()
		}
	}
	return out
}

// AppendBinary serializes the plan (schema + per-column parameters).
func (p *Plan) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.Cols)))
	for i, c := range p.Schema.Columns {
		dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, byte(c.Type))
		cp := &p.Cols[i]
		dst = append(dst, byte(cp.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cp.Threshold))
		dst = binary.AppendUvarint(dst, uint64(cp.ModelCard))
		switch cp.Kind {
		case KindCatModel, KindBinary:
			dst = cp.Dict.AppendBinary(dst)
		case KindCatResidual:
			// Residual dictionaries hold the column's full distinct set, so
			// they travel DEFLATE-packed rather than raw like model alphabets.
			dst = cp.Dict.appendPacked(dst)
			dst = binary.AppendUvarint(dst, uint64(cp.ResDigits))
		case KindFallbackCat:
			// Fallback columns store raw values in the data section; the
			// dictionary is a fitting artifact and is not archived.
		case KindNumQuant, KindNumContinuous:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cp.Scaler.Min))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cp.Scaler.Max))
		case KindNumDict:
			dst = cp.VDict.AppendBinary(dst)
		}
	}
	return dst
}

// DecodePlan parses a plan serialized by AppendBinary, returning the plan
// and the number of bytes consumed.
func DecodePlan(buf []byte) (*Plan, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("%w: missing column count", ErrCorrupt)
	}
	pos := sz
	if n > uint64(len(buf)) {
		return nil, 0, fmt.Errorf("%w: column count %d exceeds buffer", ErrCorrupt, n)
	}
	p := &Plan{Schema: &dataset.Schema{Columns: make([]dataset.Column, n)}, Cols: make([]ColPlan, n)}
	for i := range p.Cols {
		l, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 || uint64(len(buf)-pos-sz) < l {
			return nil, 0, fmt.Errorf("%w: truncated column name", ErrCorrupt)
		}
		pos += sz
		p.Schema.Columns[i].Name = string(buf[pos : pos+int(l)])
		pos += int(l)
		if len(buf)-pos < 2 {
			return nil, 0, fmt.Errorf("%w: truncated column header", ErrCorrupt)
		}
		p.Schema.Columns[i].Type = dataset.ColumnType(buf[pos])
		cp := &p.Cols[i]
		cp.Kind = ColKind(buf[pos+1])
		pos += 2
		if len(buf)-pos < 8 {
			return nil, 0, fmt.Errorf("%w: truncated threshold", ErrCorrupt)
		}
		cp.Threshold = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
		card, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("%w: truncated model cardinality", ErrCorrupt)
		}
		cp.ModelCard = int(card)
		pos += sz
		switch cp.Kind {
		case KindCatModel, KindBinary:
			d, used, err := DecodeDictionary(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			cp.Dict = d
			pos += used
		case KindCatResidual:
			d, used, err := decodePackedDictionary(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			cp.Dict = d
			pos += used
			rd, sz := binary.Uvarint(buf[pos:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("%w: truncated residual digit count", ErrCorrupt)
			}
			cp.ResDigits = int(rd)
			pos += sz
			// An invalid layout would feed garbage head widths into the
			// model wiring; a layout too small for the dictionary could
			// never have been written by the encoder.
			if l := cp.ResLayout(); !l.Valid() || l.Max() < cp.Dict.Len() {
				return nil, 0, fmt.Errorf("%w: residual layout base=%d digits=%d cannot cover %d values",
					ErrCorrupt, cp.ModelCard, cp.ResDigits, cp.Dict.Len())
			}
		case KindFallbackCat:
			// no archived parameters
		case KindNumQuant, KindNumContinuous:
			if len(buf)-pos < 16 {
				return nil, 0, fmt.Errorf("%w: truncated scaler", ErrCorrupt)
			}
			cp.Scaler.Min = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			cp.Scaler.Max = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos+8:]))
			pos += 16
			if cp.Kind == KindNumQuant {
				q, err := NewQuantizer(cp.Threshold)
				if err != nil {
					return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
				cp.Quant = q
			}
		case KindNumDict:
			vd, used, err := DecodeValueDict(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			cp.VDict = vd
			pos += used
		case KindFallbackNum:
			// no parameters
		default:
			return nil, 0, fmt.Errorf("%w: unknown column kind %d", ErrCorrupt, cp.Kind)
		}
		// Readers allocate a column's output by its schema type and fill it
		// by its kind; a plan whose two disagree cannot have been written.
		wantType := dataset.Numeric
		switch cp.Kind {
		case KindCatModel, KindBinary, KindFallbackCat, KindCatResidual:
			wantType = dataset.Categorical
		}
		if p.Schema.Columns[i].Type != wantType {
			return nil, 0, fmt.Errorf("%w: column %d is %v but its kind %v is not", ErrCorrupt, i, p.Schema.Columns[i].Type, cp.Kind)
		}
	}
	return p, pos, nil
}
