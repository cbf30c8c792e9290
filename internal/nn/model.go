package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"deepsqueeze/internal/mat"
)

// ErrCorrupt is returned when serialized model bytes fail validation.
var ErrCorrupt = errors.New("nn: corrupt model")

// maxLayerDim bounds deserialized layer dimensions as a sanity check.
const maxLayerDim = 1 << 22

// appendDense serializes a layer: dims, activation, then float32 weights and
// biases. Float32 is the precision contract: Quantize32 must have been
// called (or the truncation is accepted) because decompression will see
// exactly these float32 values.
func appendDense(dst []byte, d *Dense) []byte {
	dst = binary.AppendUvarint(dst, uint64(d.In))
	dst = binary.AppendUvarint(dst, uint64(d.Out))
	dst = append(dst, byte(d.Act))
	for _, v := range d.W.Data {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	for _, v := range d.B {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst
}

// decodeDense parses a layer and returns bytes consumed.
func decodeDense(buf []byte) (*Dense, int, error) {
	in, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("%w: missing layer dims", ErrCorrupt)
	}
	pos := sz
	out, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("%w: missing layer dims", ErrCorrupt)
	}
	pos += sz
	if in == 0 || out == 0 || in > maxLayerDim || out > maxLayerDim {
		return nil, 0, fmt.Errorf("%w: layer dims %d→%d", ErrCorrupt, in, out)
	}
	if pos >= len(buf) {
		return nil, 0, fmt.Errorf("%w: missing activation", ErrCorrupt)
	}
	act := Activation(buf[pos])
	if act > Tanh {
		return nil, 0, fmt.Errorf("%w: activation %d", ErrCorrupt, act)
	}
	pos++
	nw, nb := int(in*out), int(out)
	need := 4 * (nw + nb)
	if len(buf)-pos < need {
		return nil, 0, fmt.Errorf("%w: layer wants %d weight bytes, have %d", ErrCorrupt, need, len(buf)-pos)
	}
	// A parsed layer only infers: it has no gradient accumulators.
	d := &Dense{In: int(in), Out: int(out), Act: act, W: mat.New(int(out), int(in)), B: make([]float64, out)}
	for i := 0; i < nw; i++ {
		d.W.Data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[pos:])))
		pos += 4
	}
	for i := 0; i < nb; i++ {
		d.B[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[pos:])))
		pos += 4
	}
	if !d.finite() {
		return nil, 0, fmt.Errorf("%w: non-finite layer parameter", ErrCorrupt)
	}
	return d, pos, nil
}

// finite reports whether every parameter of the layer is a finite number.
func (d *Dense) finite() bool {
	for _, params := range [][]float64{d.W.Data, d.B} {
		for _, v := range params {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
	}
	return true
}

// Finite reports whether every decoder parameter is a finite number. Writers
// check it after Quantize32 (a diverged training run, or a float64 weight
// past float32 range, must not reach an archive) and DecodeDecoder rejects
// anything else as corrupt: inference skips the products with the shared
// stack's zero inputs, which is exact only because 0·w = ±0 for finite w
// (DESIGN.md §12).
func (d *Decoder) Finite() bool {
	for _, l := range d.Layers() {
		if !l.finite() {
			return false
		}
	}
	return true
}

// AppendBinary serializes the decoder (specs, code size, and all layers).
// Call Quantize32 first if the serialized form must reproduce in-memory
// predictions exactly.
func (d *Decoder) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.Specs)))
	for _, s := range d.Specs {
		dst = append(dst, byte(s.Kind))
		dst = binary.AppendUvarint(dst, uint64(s.Card))
	}
	dst = binary.AppendUvarint(dst, uint64(d.CodeSize))
	dst = binary.AppendUvarint(dst, uint64(len(d.Hidden)))
	for _, l := range d.Hidden {
		dst = appendDense(dst, l)
	}
	flags := byte(0)
	if d.HeadNum != nil {
		flags |= 1
	}
	if d.Aux != nil {
		flags |= 2
	}
	dst = append(dst, flags)
	if d.HeadNum != nil {
		dst = appendDense(dst, d.HeadNum)
	}
	if d.Aux != nil {
		dst = appendDense(dst, d.Aux)
		dst = appendDense(dst, d.SharedHidden)
		dst = appendDense(dst, d.Shared)
	}
	return dst
}

// DecodeDecoder parses a decoder serialized by AppendBinary and returns
// bytes consumed.
func DecodeDecoder(buf []byte) (*Decoder, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > maxLayerDim {
		return nil, 0, fmt.Errorf("%w: spec count", ErrCorrupt)
	}
	pos := sz
	d := &Decoder{Specs: make([]ColSpec, n)}
	for i := range d.Specs {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("%w: truncated specs", ErrCorrupt)
		}
		d.Specs[i].Kind = OutputKind(buf[pos])
		if d.Specs[i].Kind > OutCategorical {
			return nil, 0, fmt.Errorf("%w: output kind %d", ErrCorrupt, d.Specs[i].Kind)
		}
		pos++
		card, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 || card > maxLayerDim {
			return nil, 0, fmt.Errorf("%w: spec card", ErrCorrupt)
		}
		d.Specs[i].Card = int(card)
		pos += sz
	}
	cs, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 || cs == 0 || cs > maxLayerDim {
		return nil, 0, fmt.Errorf("%w: code size", ErrCorrupt)
	}
	d.CodeSize = int(cs)
	pos += sz
	nh, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 || nh > 64 {
		return nil, 0, fmt.Errorf("%w: hidden layer count", ErrCorrupt)
	}
	pos += sz
	d.Hidden = make([]*Dense, nh)
	for i := range d.Hidden {
		l, used, err := decodeDense(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		d.Hidden[i] = l
		pos += used
	}
	if pos >= len(buf) {
		return nil, 0, fmt.Errorf("%w: missing head flags", ErrCorrupt)
	}
	flags := buf[pos]
	pos++
	if flags&1 != 0 {
		l, used, err := decodeDense(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		d.HeadNum = l
		pos += used
	}
	if flags&2 != 0 {
		l, used, err := decodeDense(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		d.Aux = l
		pos += used
		l, used, err = decodeDense(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		d.SharedHidden = l
		pos += used
		l, used, err = decodeDense(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		d.Shared = l
		pos += used
	}
	if err := d.indexSpecs(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := d.validateShapes(); err != nil {
		return nil, 0, err
	}
	d.pack() // weights read from an archive are final
	return d, pos, nil
}

// validateShapes cross-checks layer dimensions against the specs.
func (d *Decoder) validateShapes() error {
	if len(d.Hidden) == 0 {
		return fmt.Errorf("%w: no hidden layers", ErrCorrupt)
	}
	if d.Hidden[0].In != d.CodeSize {
		return fmt.Errorf("%w: hidden input %d != code size %d", ErrCorrupt, d.Hidden[0].In, d.CodeSize)
	}
	last := d.Hidden[len(d.Hidden)-1].Out
	if d.numCols+d.binCols > 0 {
		if d.HeadNum == nil || d.HeadNum.In != last || d.HeadNum.Out != d.numCols+d.binCols {
			return fmt.Errorf("%w: numeric head shape", ErrCorrupt)
		}
	} else if d.HeadNum != nil {
		return fmt.Errorf("%w: unexpected numeric head", ErrCorrupt)
	}
	if d.catCols > 0 {
		if d.Aux == nil || d.SharedHidden == nil || d.Shared == nil ||
			d.Aux.In != last || d.Aux.Out != d.catCols ||
			d.SharedHidden.In != d.sharedWidth() ||
			d.Shared.In != d.SharedHidden.Out || d.Shared.Out != d.maxCard {
			return fmt.Errorf("%w: categorical head shape", ErrCorrupt)
		}
	} else if d.Aux != nil {
		return fmt.Errorf("%w: unexpected categorical head", ErrCorrupt)
	}
	return nil
}

// AppendEncoder serializes the encoder stack (for the paper's streaming
// scenario, where clients hold only the encoder half).
func (a *Autoencoder) AppendEncoder(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a.Encoder)))
	for _, l := range a.Encoder {
		dst = appendDense(dst, l)
	}
	return dst
}

// DecodeEncoder parses an encoder stack serialized by AppendEncoder.
func DecodeEncoder(buf []byte) ([]*Dense, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n == 0 || n > 64 {
		return nil, 0, fmt.Errorf("%w: encoder layer count", ErrCorrupt)
	}
	pos := sz
	layers := make([]*Dense, n)
	for i := range layers {
		l, used, err := decodeDense(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		layers[i] = l
		pos += used
	}
	return layers, pos, nil
}
