package mat

// ArenaOf is a grow-only scratch allocator for the matrices a forward/backward
// or inference pass produces, defined once for both element widths (Arena and
// Arena32 below). The first pass through a network allocates headers and
// backing slices; Reset rewinds the arena so the next pass re-serves the same
// memory in the same order, making steady-state training and inference
// allocation-free.
//
// Ownership rules (see DESIGN.md §12): an arena belongs to exactly one
// goroutine — the data-parallel trainer gives each minibatch shard its own —
// and every matrix served by Get is invalidated by the next Reset. Callers
// must copy anything that outlives the pass into memory they own.
type ArenaOf[E float32 | float64] struct {
	mats []*Mat[E]
	next int
}

// Arena serves float64 scratch, Arena32 the float32 predictor's.
type (
	Arena   = ArenaOf[float64]
	Arena32 = ArenaOf[float32]
)

// Get serves a zeroed rows×cols matrix from the arena, growing it on first
// use. A nil arena allocates a fresh matrix, so code written against an arena
// also runs without one.
//
// Get zeroes recycled memory before returning it: arena-served matrices are
// used as accumulators and as sparse one-hot buffers where only set positions
// are written, exactly like freshly allocated ones.
func (a *ArenaOf[E]) Get(rows, cols int) *Mat[E] {
	m := a.GetUncleared(rows, cols)
	m.Zero()
	return m
}

// GetUncleared is Get without the zeroing: a recycled matrix holds whatever
// the pass before left in it. It is for matrices that something writes whole
// before anything reads them: in inference every one (x·Wᵀ, the sigmoid
// head, a signal pass), in training each layer's output and ∂L/∂in, and the
// training step's products, signal passes and copies — but not its sums,
// which start from Get's zeros. nn's TestScratchHasNoMemory and
// TestTrainArenaHasNoMemory fill recycled memory with NaN to show it.
func (a *ArenaOf[E]) GetUncleared(rows, cols int) *Mat[E] {
	if a == nil {
		return newMat[E](rows, cols)
	}
	if a.next < len(a.mats) {
		m := a.mats[a.next]
		if cap(m.Data) >= rows*cols {
			a.next++
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:rows*cols]
			return m
		}
		// Shape drift (e.g. a smaller final batch followed by a full one):
		// replace the slot with a large-enough matrix and keep going. A slot
		// only ever grows.
		m = newMat[E](rows, cols)
		a.mats[a.next] = m
		a.next++
		return m
	}
	m := newMat[E](rows, cols)
	a.mats = append(a.mats, m)
	a.next++
	return m
}

// Reset rewinds the arena: every matrix previously served by Get becomes
// reusable (and invalid to its former holder). A nil arena is a no-op.
func (a *ArenaOf[E]) Reset() {
	if a != nil {
		a.next = 0
	}
}
