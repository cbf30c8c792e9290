package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/preprocess"
)

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
// unseen during training become ordinary escape failures. The ArchiveWriter
// refits every row group after its first this way.
func refitPlan(batch *dataset.Table, trainPlan *preprocess.Plan, thresholds []float64, opts Options) (*preprocess.Plan, error) {
	fresh, err := preprocess.Fit(batch, opts.Preproc, thresholds)
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

// DecompressBatch reconstructs a streaming batch archive, given the model
// archive it references. No writer emits batch archives any more — an
// ArchiveWriter's refit groups serve the same scenario inside one
// self-contained archive — but the ones already written stay readable.
func DecompressBatch(modelArchive, batchArchive []byte) (*dataset.Table, error) {
	res, err := DecompressBatchContext(context.Background(), modelArchive, batchArchive, DecompressOptions{})
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// DecompressBatchContext is DecompressBatch with cancellation and
// query-aware projection: the batch archive's handle takes the model
// archive's decoders into its decoder cache and then runs the same request
// as DecompressContext.
func DecompressBatchContext(ctx context.Context, modelArchive, batchArchive []byte, opts DecompressOptions) (*DecompressResult, error) {
	model, err := modelFromArchive(modelArchive)
	if err != nil {
		return nil, fmt.Errorf("model archive: %w", err)
	}
	a, err := Open(batchArchive)
	if err != nil {
		return nil, err
	}
	if a.External() && a.meta.hasModel {
		if err := a.useModel(model); err != nil {
			return nil, err
		}
	}
	return a.decompress(ctx, opts)
}

// modelFromArchive opens a self-contained model archive and parses its
// decoders, which the batch archives referencing it borrow.
func modelFromArchive(archive []byte) (*Archive, error) {
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
	if _, _, err := a.decoders(); err != nil {
		return nil, err
	}
	return a, nil
}

// useModel puts the decoders of the model archive a batch archive references
// into the handle's decoder cache, once they check out as that model's: a
// batch archive stores the SHA-256 of the model's decoder section where its
// own decoders would be, and the model must have the batch's expert count
// and shapes.
func (a *Archive) useModel(model *Archive) error {
	m, decoders := a.meta, model.decs
	hash := sha256.Sum256(model.meta.decoderChunk)
	if !bytes.Equal(m.decoderChunk, hash[:]) {
		return fmt.Errorf("%w: batch archive references a different model archive", ErrCorrupt)
	}
	if len(decoders) != m.numExperts {
		return fmt.Errorf("%w: model archive has %d experts, batch wants %d", ErrCorrupt, len(decoders), m.numExperts)
	}
	if err := checkDecoderShapes(decoders, m.codeSize, m.layout.specs); err != nil {
		return err
	}
	a.decOnce.Do(func() { a.decs, a.decs32 = decoders, m.narrow(decoders) })
	return nil
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
