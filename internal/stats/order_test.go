package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestOrderKeyFollowsFloatOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ascending := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -math.SmallestNonzeroFloat64,
		negZero, 0, math.SmallestNonzeroFloat64, 1, 2, 1e300, math.MaxFloat64, math.Inf(1),
	}
	for i := 1; i < len(ascending); i++ {
		a, b := ascending[i-1], ascending[i]
		ka, kb := OrderKey(a), OrderKey(b)
		if a == b {
			if ka != kb {
				t.Errorf("OrderKey(%v) = %#x, OrderKey(%v) = %#x: equal floats must share a key", a, ka, b, kb)
			}
		} else if ka >= kb {
			t.Errorf("OrderKey(%v) = %#x !< OrderKey(%v) = %#x", a, ka, b, kb)
		}
	}
}

// TestArgsortIsAStableSort holds Argsort to sort.SliceStable on inputs
// that take every path: continuous values (all eight key bytes vary),
// small integers (most bytes constant and skipped), a constant sample (no
// pass at all), signed zeros and infinities.
func TestArgsortIsAStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	negZero := math.Copysign(0, -1)
	gens := map[string]func() float64{
		"normal":   rng.NormFloat64,
		"integers": func() float64 { return float64(rng.Intn(9) - 4) },
		"bytes":    func() float64 { return math.Floor(math.Exp(10 * rng.Float64())) },
		"constant": func() float64 { return 42 },
		"special": func() float64 {
			return []float64{negZero, 0, 1, -1, math.Inf(1), math.Inf(-1)}[rng.Intn(6)]
		},
	}
	var o Order // reused across every size
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 5} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen()
			}
			// Start from a shuffled permutation so stability is visible.
			perm := make([]uint32, n)
			for i, p := range rng.Perm(n) {
				perm[i] = uint32(p)
			}
			want := append([]uint32(nil), perm...)
			sort.SliceStable(want, func(a, b int) bool { return xs[want[a]] < xs[want[b]] })
			if !o.Argsort(xs, perm) {
				t.Fatalf("%s n=%d: Argsort reported a NaN", name, n)
			}
			for i := range want {
				if perm[i] != want[i] {
					t.Fatalf("%s n=%d: position %d holds index %d, stable sort puts %d there", name, n, i, perm[i], want[i])
				}
			}
		}
	}
}

func TestArgsortReportsNaN(t *testing.T) {
	var o Order
	for _, xs := range [][]float64{
		{math.NaN()},
		{1, 2, math.NaN()},
		{math.Copysign(math.NaN(), -1), 0},
	} {
		perm := make([]uint32, len(xs))
		for i := range perm {
			perm[i] = uint32(i)
		}
		if o.Argsort(xs, perm) {
			t.Errorf("Argsort(%v) did not report the NaN", xs)
		}
	}
}

func TestRanksNaNAndSignedZero(t *testing.T) {
	for _, r := range Ranks([]float64{3, math.NaN(), 1}) {
		if !math.IsNaN(r) {
			t.Fatalf("a NaN observation must leave every rank NaN, got %v", r)
		}
	}
	got := Ranks([]float64{math.Copysign(0, -1), 1, 0, -1, math.Inf(1), math.Inf(-1)})
	want := []float64{3.5, 5, 3.5, 2, 6, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v (signed zeros tie, infinities are extreme)", got, want)
		}
	}
}
