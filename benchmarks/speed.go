package main

import (
	"math"
	"sort"
	"time"
)

// The sandbox this benchmark runs in shares its physical cores and memory
// with other tenants: identical code runs 10–40 % slower for seconds or
// minutes at a time, CPU time drifts exactly like wall time, and no
// estimator over one run's samples removes that: over ten seeds the raw
// medians' quartile distance reached 20–40 % on every timing metric, above
// the widest bound the driver accepts (README, "Noise"). So between the
// measured operations every round also times two small fixed kernels of the
// benchmark's own — one bound by floating-point throughput, one by memory
// latency — and the end-to-end timings are reported at reference machine
// speed: each sample is scaled by how fast those kernels ran around it
// relative to their nominal times. The kernels touch no code of the program
// under test, so a change to the program moves the metrics and not the
// yardstick; the raw medians are printed beside the reported ones on stderr.

const (
	walkSlots = 1 << 24 // × 4 bytes = 64 MB, far larger than any cache level
	walkSteps = 5_000
	fpRows    = 384
	fpDim     = 64

	// Nominal kernel times on the reference sandbox in a quiet period; they
	// only fix the scale, so that normalized numbers read like raw ones.
	nominalFPNS   = 0.75e6
	nominalWalkNS = 1.10e6

	// speedWindow is how far either side of an operation its speed ticks
	// are taken from, in seconds; minTicks is the fewest it settles for.
	speedWindow = 1.0
	minTicks    = 8
)

// tick is one pair of kernel timings in nanoseconds.
type tick struct {
	At       float64 // seconds on the run's clock
	FP, Walk float64
}

// stretch is the part of the run's clock one measured operation took.
type stretch struct {
	Start, End float64
	Count      int // queries completed (bursts)
}

func (s stretch) seconds() float64 { return s.End - s.Start }

// speedRef holds the kernels' working sets, the run's clock and every tick.
type speedRef struct {
	walk    []uint32
	a, b, c []float64
	pos     uint32
	t0      time.Time
	ticks   []tick
}

var speedSink float64

func newSpeedRef() *speedRef {
	r := &speedRef{
		walk: make([]uint32, walkSlots),
		a:    make([]float64, fpRows*fpDim),
		b:    make([]float64, fpDim*fpDim),
		c:    make([]float64, fpRows*fpDim),
		t0:   time.Now(),
	}
	// A full-period linear congruential map (Hull–Dobell: odd increment,
	// multiplier ≡ 1 mod 4) visits every slot once per cycle in an order no
	// prefetcher follows, and needs no shuffle to build.
	for i := range r.walk {
		r.walk[i] = (uint32(i)*1664525 + 1013904223) & (walkSlots - 1)
	}
	for i := range r.a {
		r.a[i] = float64(i%97) / 97
	}
	for i := range r.b {
		r.b[i] = float64(i%89) / 89
	}
	return r
}

// now reads the run's clock.
func (r *speedRef) now() float64 { return time.Since(r.t0).Seconds() }

// fp times c = a·bᵀ with four independent accumulators, all in cache.
func (r *speedRef) fp() float64 {
	start := time.Now()
	for i := 0; i < fpRows; i++ {
		ar := r.a[i*fpDim : (i+1)*fpDim]
		for j := 0; j < fpDim; j++ {
			br := r.b[j*fpDim : (j+1)*fpDim]
			var s0, s1, s2, s3 float64
			for k := 0; k < fpDim; k += 4 {
				s0 += ar[k] * br[k]
				s1 += ar[k+1] * br[k+1]
				s2 += ar[k+2] * br[k+2]
				s3 += ar[k+3] * br[k+3]
			}
			r.c[i*fpDim+j] = s0 + s1 + s2 + s3
		}
	}
	speedSink = r.c[len(r.c)-1]
	return float64(time.Since(start).Nanoseconds())
}

// chase times a chain of dependent loads that miss every cache.
func (r *speedRef) chase() float64 {
	start := time.Now()
	p := r.pos
	for i := 0; i < walkSteps; i++ {
		p = r.walk[p]
	}
	r.pos = p
	return float64(time.Since(start).Nanoseconds())
}

// sample times each kernel twice, alternating. Callers tick between measured
// operations, never inside one.
func (r *speedRef) sample() {
	for i := 0; i < 2; i++ {
		r.ticks = append(r.ticks, tick{At: r.now(), FP: r.fp(), Walk: r.chase()})
	}
}

// factor converts a time measured over s to reference machine speed: the
// geometric mean of how much faster than nominal the two kernels ran around
// it (below 1 when the machine was slow, so the time shrinks). The two kinds
// of contention come and go independently and every operation suffers from
// both, so they weigh the same for every metric; nothing is fitted. It looks
// at the ticks within speedWindow of the stretch, or the minTicks nearest
// when fewer fall inside. Ticks are in time order.
func (r *speedRef) factor(s stretch) float64 {
	if len(r.ticks) == 0 {
		return 1
	}
	lo := sort.Search(len(r.ticks), func(i int) bool { return r.ticks[i].At >= s.Start-speedWindow })
	hi := sort.Search(len(r.ticks), func(i int) bool { return r.ticks[i].At > s.End+speedWindow })
	for hi-lo < minTicks && (lo > 0 || hi < len(r.ticks)) {
		if lo > 0 {
			lo--
		}
		if hi < len(r.ticks) {
			hi++
		}
	}
	fp := make([]float64, 0, hi-lo)
	walk := make([]float64, 0, hi-lo)
	for _, t := range r.ticks[lo:hi] {
		fp = append(fp, t.FP)
		walk = append(walk, t.Walk)
	}
	return math.Sqrt(nominalFPNS / median(fp) * nominalWalkNS / median(walk))
}
