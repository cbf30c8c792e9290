// Package mat provides dense matrices sized for the small multilayer
// perceptrons DeepSqueeze trains — float64 for training and the default
// decode plan, float32 for the float32 decode plan's inference. It is
// deliberately minimal: row-major storage, explicit dimensions, and the
// handful of operations backpropagation and inference need. Operations that
// combine matrices check dimensions and panic on mismatch, since a mismatch
// is always a programming error in the caller rather than a data-dependent
// condition.
package mat

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix, defined once for both element widths.
// Matrix and Matrix32 below are its only instantiations and remain distinct
// types: a precision mix-up fails to compile, it does not silently widen.
// What differs between the widths — the kernels — is written out per width
// (mul.go and packed.go; mul32.go and dot32_ref.go), because those are
// different algorithms, not twins (DESIGN.md §15).
type Mat[E float32 | float64] struct {
	Rows, Cols int
	Data       []E // len == Rows*Cols, row-major
}

// Matrix is the float64 matrix: training, and the default decode plan.
type Matrix = Mat[float64]

// Matrix32 is the float32 matrix of the float32 decode plan's inference.
type Matrix32 = Mat[float32]

func newMat[E float32 | float64](rows, cols int) *Mat[E] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Mat[E]{Rows: rows, Cols: cols, Data: make([]E, rows*cols)}
}

func fromSlice[E float32 | float64](rows, cols int, data []E) *Mat[E] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Mat[E]{Rows: rows, Cols: cols, Data: data}
}

// New returns a zero-valued matrix with the given dimensions.
func New(rows, cols int) *Matrix { return newMat[float64](rows, cols) }

// New32 returns a zero-valued float32 matrix with the given dimensions.
func New32(rows, cols int) *Matrix32 { return newMat[float32](rows, cols) }

// FromSlice wraps data (row-major) in a Matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix { return fromSlice(rows, cols, data) }

// FromSlice32 wraps data (row-major) in a Matrix32 without copying.
func FromSlice32(rows, cols int, data []float32) *Matrix32 { return fromSlice(rows, cols, data) }

// At returns the element at row i, column j.
func (m *Mat[E]) At(i, j int) E { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Mat[E]) Set(i, j int, v E) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Mat[E]) Row(i int) []E { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SliceRows returns a view of rows [lo, hi) sharing m's backing array (rows
// are contiguous in row-major storage, so no copy is needed). Mutations
// through the view are visible in m. The view is returned by value so that
// slicing allocates nothing; take its address to pass it as a pointer.
func (m *Mat[E]) SliceRows(lo, hi int) Mat[E] {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("mat: SliceRows [%d, %d) of %d rows", lo, hi, m.Rows))
	}
	return Mat[E]{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Clone returns a deep copy of m.
func (m *Mat[E]) Clone() *Mat[E] {
	c := newMat[E](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to zero.
func (m *Mat[E]) Zero() { clear(m.Data) }

// Fill sets every element of m to v.
func (m *Mat[E]) Fill(v E) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose of m as a new matrix.
func (m *Mat[E]) T() *Mat[E] {
	t := newMat[E](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s in place.
func (m *Mat[E]) Scale(s E) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Apply replaces each element x of m with f(x) in place.
func (m *Mat[E]) Apply(f func(E) E) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// MaxAbs returns the largest absolute element value in m, or 0 for an empty
// matrix.
func (m *Mat[E]) MaxAbs() E {
	var max E
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > max {
			max = v
		}
	}
	return max
}

func checkSame(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a+b element-wise.
func Add(a, b *Matrix) *Matrix {
	checkSame(a, b, "Add")
	c := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		c.Data[i] = v + b.Data[i]
	}
	return c
}

// AddInPlace adds b into a element-wise.
func AddInPlace(a, b *Matrix) {
	checkSame(a, b, "AddInPlace")
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Sub returns a-b element-wise.
func Sub(a, b *Matrix) *Matrix {
	checkSame(a, b, "Sub")
	c := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		c.Data[i] = v - b.Data[i]
	}
	return c
}

// Hadamard returns the element-wise product of a and b.
func Hadamard(a, b *Matrix) *Matrix {
	checkSame(a, b, "Hadamard")
	c := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		c.Data[i] = v * b.Data[i]
	}
	return c
}

// Equal reports whether a and b have identical shape and every pair of
// elements differs by at most tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
