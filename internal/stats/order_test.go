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
// that take every path: continuous values (every key digit varies), small
// integers (most digits constant and skipped), a constant sample (no pass
// at all), signed zeros and infinities — at sizes either side of the
// insertion cut-off and of the switch from 8- to 11-bit digits, and over a
// subset of the indices as well as a whole permutation. Keys must hold
// the sorted OrderKeys.
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
	sizes := []int{0, 1, 2, 3, 17, insertionMax, insertionMax + 1, 256, 1000,
		wideDigitMin - 1, wideDigitMin, 5}
	var o Order // reused across every size
	for name, gen := range gens {
		for _, n := range sizes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen()
			}
			for _, subset := range []bool{false, true} {
				// Start from a shuffled permutation so stability is
				// visible; the subset drops every third index.
				var perm []uint32
				for _, p := range rng.Perm(n) {
					if !subset || p%3 != 0 {
						perm = append(perm, uint32(p))
					}
				}
				want := append([]uint32(nil), perm...)
				sort.SliceStable(want, func(a, b int) bool { return xs[want[a]] < xs[want[b]] })
				if !o.Argsort(xs, perm) {
					t.Fatalf("%s n=%d: Argsort reported a NaN", name, n)
				}
				keys := o.Keys()
				if len(keys) != len(perm) {
					t.Fatalf("%s n=%d: %d keys for %d indices", name, n, len(keys), len(perm))
				}
				for i := range want {
					if perm[i] != want[i] {
						t.Fatalf("%s n=%d subset=%v: position %d holds index %d, stable sort puts %d there", name, n, subset, i, perm[i], want[i])
					}
					if keys[i] != OrderKey(xs[perm[i]]) {
						t.Fatalf("%s n=%d subset=%v: Keys()[%d] = %#x, want OrderKey(%v)", name, n, subset, i, keys[i], xs[perm[i]])
					}
				}
			}
		}
	}
}

func TestKeyFloatInvertsOrderKey(t *testing.T) {
	for _, f := range []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1, 1e300, math.Inf(1)} {
		if got := keyFloat(OrderKey(f)); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("keyFloat(OrderKey(%v)) = %v", f, got)
		}
	}
	if got := keyFloat(OrderKey(math.Copysign(0, -1))); math.Signbit(got) {
		t.Errorf("-0 must come back as +0 (OrderKey folds the zeros), got %v", got)
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

// TestSortMatchesSortFloat64s holds the radix Sort to sort.Float64s at
// sizes either side of both cut-offs: the same values in the same order
// (== treats the zeros as one, as the KS test does), NaNs at the ends.
func TestSortMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{0, 1, 2, 9, insertionMax, insertionMax + 1, 500, wideDigitMin - 1, wideDigitMin, 10080} {
		for rep := 0; rep < 3; rep++ {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(4) {
				case 0:
					xs[i] = math.Floor(math.Exp(12 * rng.Float64()))
				case 1:
					xs[i] = []float64{negZero, 0, math.Inf(1), math.Inf(-1)}[rng.Intn(4)]
				default:
					xs[i] = rng.NormFloat64() * 1e3
				}
			}
			if rep == 2 && n > 2 {
				xs[0], xs[n-1] = math.NaN(), math.Copysign(math.NaN(), -1)
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			Sort(xs)
			// sort.Float64s puts every NaN first; Sort puts a NaN at the
			// end its sign bit orders it to. Compare the observed values.
			strip := func(v []float64) []float64 {
				var out []float64
				for _, x := range v {
					if !math.IsNaN(x) {
						out = append(out, x)
					}
				}
				return out
			}
			got, ref := strip(xs), strip(want)
			if len(got) != len(ref) {
				t.Fatalf("n=%d: %d observed values after Sort, want %d", n, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("n=%d: position %d holds %v, sort.Float64s puts %v there", n, i, got[i], ref[i])
				}
			}
			if rep == 2 && n > 2 && !(math.IsNaN(xs[0]) && math.IsNaN(xs[n-1])) {
				t.Fatalf("n=%d: the NaNs must sort to the ends, got %v … %v", n, xs[0], xs[n-1])
			}
		}
	}
}

// Ranks is the fractional-rank reference the Order kernel is tested
// through; corr ranks its own windows (corr.Ranked).
//
// Ranks returns the fractional ranks of xs (1-based, ties receive the
// average rank), the form required by Spearman's correlation. -0 and +0
// tie. A NaN has no rank and leaves none well-defined for the rest: if xs
// holds one, every rank is NaN.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	ranks := make([]float64, n)
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	var o Order
	if !o.Argsort(xs, perm) {
		for i := range ranks {
			ranks[i] = math.NaN()
		}
		return ranks
	}
	keys := o.Keys()
	for i := 0; i < n; {
		j := i
		for j+1 < n && keys[j+1] == keys[i] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[perm[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
