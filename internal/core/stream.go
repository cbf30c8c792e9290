package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
)

// Stream implements the paper's streaming-archival scenario (§3): the model
// is trained once on an initial batch, its decoders live in a single *model
// archive* (the initial batch's own archive), and subsequent message
// batches compress into small *batch archives* that reference the model by
// the SHA-256 of its decoder section instead of embedding it. Per batch,
// only the cheap preprocessing state (dictionaries, scalers, quantizers) is
// re-fitted; the trained experts are reused, so batch cost is encoding +
// materialization with no training. Distribution drift surfaces as growing
// failure streams — the signal to retrain, as the paper suggests.
type Stream struct {
	opts       Options
	thresholds []float64
	trainPlan  *preprocess.Plan
	experts    []*nn.Autoencoder
	specs      []nn.ColSpec
	model      []byte
	hash       [32]byte
}

// NewStream trains on the initial batch and returns the stream compressor
// together with the initial batch's compression result. The result's
// archive is the model archive: keep it, every batch needs it to decompress.
func NewStream(train *dataset.Table, thresholds []float64, opts Options) (*Stream, *Result, error) {
	opts.Preproc = streamingResidualHeadroom(opts.Preproc)
	res, st, err := compress(context.Background(), nil, train, thresholds, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(st.autoenc) == 0 {
		return nil, nil, fmt.Errorf("core: streaming needs at least one model column and a non-empty training batch")
	}
	model, err := modelFromArchive(res.Archive)
	if err != nil {
		return nil, nil, err
	}
	s := &Stream{
		opts:       opts,
		thresholds: append([]float64(nil), thresholds...),
		trainPlan:  st.md.plan,
		experts:    st.autoenc,
		specs:      append([]nn.ColSpec(nil), st.md.specs...),
		model:      res.Archive,
		hash:       model.hash,
	}
	return s, res, nil
}

// ModelArchive returns the self-contained model archive (the compressed
// initial batch). DecompressBatch needs it for every batch archive.
func (s *Stream) ModelArchive() []byte { return s.model }

// CompressBatch compresses one message batch against the trained model.
// The batch must have the training schema. Batch archives are decompressed
// with DecompressBatch(model, batch).
func (s *Stream) CompressBatch(batch *dataset.Table) (*Result, error) {
	return s.CompressBatchContext(context.Background(), batch)
}

// CompressBatchContext is CompressBatch with cancellation: the batch
// pipeline (preprocess → assign → materialize) checks ctx between stages and
// between parallel work items and returns ctx.Err() promptly once the
// context is done.
func (s *Stream) CompressBatchContext(ctx context.Context, batch *dataset.Table) (*Result, error) {
	if !batch.Schema.Equal(s.trainPlan.Schema) {
		return nil, fmt.Errorf("core: batch schema differs from training schema")
	}
	run := pipeline.New(ctx, s.opts.Parallelism)
	var md *modelData
	err := run.Stage("preprocess", func() error {
		plan, err := s.fitBatchPlan(batch)
		if err != nil {
			return err
		}
		md, err = buildModelData(batch, plan)
		if err != nil {
			return err
		}
		return checkRefitSpecs(md.specs, s.specs)
	})
	if err != nil {
		return nil, err
	}
	assign := make([]int, md.rows)
	if len(s.experts) > 1 {
		err := run.Stage("assign", func() error {
			assign = (&nn.MoE{Experts: s.experts}).Assign(md.x, md.targets)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	st, res, err := decide(run, batch, md, s.opts, s.experts, assign, &externalModelRef{Hash: s.hash})
	if err != nil {
		return nil, err
	}
	if err := assembleArchive(run, batch, s.opts, st, res); err != nil {
		return nil, err
	}
	res.Stages = run.Stats()
	return res, nil
}

// fitBatchPlan re-fits per-batch preprocessing state against the stream's
// training plan.
func (s *Stream) fitBatchPlan(batch *dataset.Table) (*preprocess.Plan, error) {
	return refitPlan(batch, s.trainPlan, s.thresholds, s.opts)
}

// streamingResidualHeadroom applies the streaming default for residual
// layout slack: the plan is fitted on a pilot batch that undercounts the
// alphabet later batches may carry, and residual digits have no escape
// path, so the digit layout is sized for twice the pilot's distinct count.
// An explicit caller-set headroom (any non-zero value) is kept as-is.
func streamingResidualHeadroom(p preprocess.Options) preprocess.Options {
	if p.ResidualCats && p.ResidualHeadroom == 0 {
		p.ResidualHeadroom = 2
	}
	return p
}

// refitPlan re-fits per-batch preprocessing state while pinning the
// decisions the trained model depends on: every column keeps its training
// kind, and categorical model alphabets keep their training size. Values
// unseen during training become ordinary escape failures. Both the streaming
// batch compressor and the bounded-memory ArchiveWriter refit their
// non-initial chunks this way.
func refitPlan(batch *dataset.Table, trainPlan *preprocess.Plan, thresholds []float64, opts Options) (*preprocess.Plan, error) {
	popts := opts.Preproc
	popts.NoQuantization = popts.NoQuantization || opts.NoQuantization
	fresh, err := preprocess.Fit(batch, popts, thresholds)
	if err != nil {
		return nil, err
	}
	for col := range fresh.Cols {
		tc := &trainPlan.Cols[col]
		bc := &fresh.Cols[col]
		switch tc.Kind {
		case preprocess.KindCatModel:
			// Force the column back to the categorical-model path with the
			// trained alphabet size, regardless of the batch's own
			// statistics (a batch may look high-cardinality or binary).
			if bc.Dict == nil {
				bc.Dict = preprocess.BuildDictionary(batch.Str[col])
			}
			bc.Kind = preprocess.KindCatModel
			bc.ModelCard = tc.ModelCard
		case preprocess.KindCatResidual:
			// Pin the trained digit layout. Residual digits have no escape
			// path — every batch rank must fit inside Base^Digits — so a
			// batch whose alphabet outgrows the trained capacity is a hard
			// retrain signal rather than a failure-stream entry.
			if bc.Dict == nil {
				bc.Dict = preprocess.BuildDictionary(batch.Str[col])
			}
			bc.Kind = preprocess.KindCatResidual
			bc.ModelCard = tc.ModelCard
			bc.ResDigits = tc.ResDigits
			if l := bc.ResLayout(); bc.Dict.Len() > l.Max() {
				return nil, fmt.Errorf("core: column %q has %d distinct values, exceeding the trained residual capacity %d (retrain needed)",
					batch.Schema.Columns[col].Name, bc.Dict.Len(), l.Max())
			}
		case preprocess.KindBinary:
			if bc.Dict == nil {
				bc.Dict = preprocess.BuildDictionary(batch.Str[col])
			}
			if bc.Dict.Len() > 2 {
				return nil, fmt.Errorf("core: column %q was binary at training time but batch has %d distinct values (retrain needed)",
					batch.Schema.Columns[col].Name, bc.Dict.Len())
			}
			bc.Kind = preprocess.KindBinary
			bc.ModelCard = 2
		case preprocess.KindNumQuant, preprocess.KindNumContinuous:
			if bc.Kind != tc.Kind {
				return nil, fmt.Errorf("core: column %q changed numeric handling (retrain needed)", batch.Schema.Columns[col].Name)
			}
		case preprocess.KindNumDict:
			if bc.Kind == preprocess.KindFallbackNum {
				return nil, fmt.Errorf("core: column %q exceeded the value-dictionary limit in this batch (retrain needed)",
					batch.Schema.Columns[col].Name)
			}
		case preprocess.KindFallbackCat, preprocess.KindFallbackNum:
			bc.Kind = tc.Kind
			bc.ModelCard = 0
		}
		// The spec list must keep its training shape: columns trivial at
		// training time stay trivial, and columns modeled at training time
		// stay modeled even when a batch happens to be constant.
		if isTrivial(tc) {
			bc.ModelCard = tc.ModelCard
		} else if isTrivial(bc) {
			bc.ModelCard = 2
		}
	}
	return fresh, nil
}

// checkRefitSpecs verifies a refit plan kept the trained model's column
// specs — the invariant that lets the trained experts decode the new rows.
func checkRefitSpecs(got, want []nn.ColSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("core: batch produced %d model columns, training had %d (retrain needed)", len(got), len(want))
	}
	for i, sp := range got {
		if sp != want[i] {
			return fmt.Errorf("core: batch model column %d spec %+v differs from training %+v (retrain needed)", i, sp, want[i])
		}
	}
	return nil
}

// DecompressBatch reconstructs a batch compressed by Stream.CompressBatch,
// given the stream's model archive.
func DecompressBatch(modelArchive, batchArchive []byte) (*dataset.Table, error) {
	res, err := DecompressBatchContext(context.Background(), modelArchive, batchArchive, DecompressOptions{})
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// DecompressBatchContext is DecompressBatch with cancellation and
// query-aware projection — the batch archive runs through the same staged
// pipeline as DecompressContext, with the model archive supplying the
// decoders.
func DecompressBatchContext(ctx context.Context, modelArchive, batchArchive []byte, opts DecompressOptions) (*DecompressResult, error) {
	model, err := modelFromArchive(modelArchive)
	if err != nil {
		return nil, fmt.Errorf("model archive: %w", err)
	}
	return decompressPipeline(ctx, batchArchive, opts, model)
}

// modelFromArchive opens a self-contained model archive and returns its
// decoders with the hash of its decoder section, the identity batch archives
// reference it by.
func modelFromArchive(archive []byte) (*providedModel, error) {
	a, err := Open(archive)
	if err != nil {
		return nil, err
	}
	if a.External() {
		return nil, fmt.Errorf("%w: a batch archive cannot serve as a model archive", ErrCorrupt)
	}
	if !a.meta.hasModel {
		return nil, fmt.Errorf("%w: model archive has no model section", ErrCorrupt)
	}
	decoders, _, err := a.decoders()
	if err != nil {
		return nil, err
	}
	return &providedModel{decoders: decoders, hash: sha256.Sum256(a.meta.decoderChunk)}, nil
}

// parseDecoderSection splits a (inflated-on-demand) decoder section into
// its per-expert decoders.
func parseDecoderSection(section []byte, numExperts int) ([]*nn.Decoder, error) {
	db, err := inflateDecoderSection(section)
	if err != nil {
		return nil, err
	}
	decoders := make([]*nn.Decoder, numExperts)
	dpos := 0
	for e := range decoders {
		l, sz := binary.Uvarint(db[dpos:])
		if sz <= 0 || uint64(len(db)-dpos-sz) < l {
			return nil, fmt.Errorf("%w: truncated decoder %d", ErrCorrupt, e)
		}
		dpos += sz
		dec, used, err := nn.DecodeDecoder(db[dpos : dpos+int(l)])
		if err != nil {
			return nil, err
		}
		if used != int(l) {
			return nil, fmt.Errorf("%w: decoder %d has %d stray bytes", ErrCorrupt, e, int(l)-used)
		}
		decoders[e] = dec
		dpos += int(l)
	}
	if dpos != len(db) {
		return nil, fmt.Errorf("%w: trailing decoder bytes", ErrCorrupt)
	}
	return decoders, nil
}
