package corrsim

import (
	"math"
	"math/rand"
	"testing"
)

// windowSet returns k windows of n points sharing one evening shape under
// multiplicative noise, so most pairs score above zero: a third of them
// quantised (ties), a few missing bins in every other one, one all-zero
// window, one constant window and one that is three points shorter.
func windowSet(rng *rand.Rand, k, n int) [][]float64 {
	out := make([][]float64, k)
	for w := range out {
		vals := make([]float64, n)
		for i := range vals {
			shape := 100 + 5000*math.Exp(-math.Pow(float64(i)/float64(n)-0.8, 2)/0.02)
			vals[i] = shape * math.Exp(0.4*rng.NormFloat64())
			if w%3 == 1 {
				vals[i] = math.Round(vals[i] / 1000)
			}
			if w%2 == 0 && rng.Float64() < 0.15 {
				vals[i] = math.NaN()
			}
		}
		switch w {
		case k / 2:
			clear(vals)
		case k / 3:
			for i := range vals {
				vals[i] = 7
			}
		case k / 4:
			vals = vals[:n-3]
		}
		out[w] = vals
	}
	return out
}

// TestGraphMatchesSimilarity holds every pair of the graph, read in both
// orders, bit-equal to the measure's own Similarity of (w_i, w_j), i < j.
func TestGraphMatchesSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, m := range []Measure{Default, {Alpha: 0.2, Use: UseKendall}} {
		for _, k := range []int{0, 1, 2, 3, 9, 24} {
			ws := windowSet(rng, k, 24)
			g := m.Graph(ws)
			for j := range ws {
				for i := 0; i < j; i++ {
					want := math.Float64bits(m.Detailed(ws[i], ws[j]).Similarity)
					if got := math.Float64bits(g.At(i, j)); got != want {
						t.Errorf("%+v k=%d: At(%d, %d) = %v, Similarity = %v", m, k, i, j,
							math.Float64frombits(got), math.Float64frombits(want))
					}
					if got := math.Float64bits(g.At(j, i)); got != want {
						t.Errorf("%+v k=%d: At(%d, %d) = %v, Similarity = %v", m, k, j, i,
							math.Float64frombits(got), math.Float64frombits(want))
					}
				}
			}
			if k == 24 && g.At(k-2, k-1) == 0 {
				t.Errorf("%+v: the last pair scores 0; the set should make it similar", m)
			}
		}
	}
}

func TestGraphAtRejectsSelfAndOutsidePairs(t *testing.T) {
	g := Default.Graph(windowSet(rand.New(rand.NewSource(1)), 4, 8))
	for _, p := range [][2]int{{2, 2}, {0, 4}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d, %d) did not panic", p[0], p[1])
				}
			}()
			g.At(p[0], p[1])
		}()
	}
}

// TestDetailedSymmetric holds Definition 1 symmetric bit for bit —
// Detailed(x, y) == Detailed(y, x) in every coefficient, its p-value and N —
// the property the window graph's one stored triangle rests on.
func TestDetailedSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	traffic := func(n int, nan, quantum float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Floor(rng.ExpFloat64()*800/quantum) * quantum
			if rng.Float64() < nan {
				out[i] = math.NaN()
			}
		}
		return out
	}
	constant := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	related := func(x []float64, quantum float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = math.Floor(v*rng.Float64()/quantum) * quantum
		}
		return out
	}
	long := traffic(10080, 0.05, 1)
	ties := traffic(200, 0, 300)
	cases := []struct {
		name string
		x, y []float64
	}{
		{"nan gaps", traffic(300, 0.1, 1), traffic(300, 0.1, 1)},
		{"ties", ties, related(ties, 200)},
		{"all zero", make([]float64, 64), traffic(64, 0.1, 1)},
		{"constant", constant(64, 3), traffic(64, 0, 1)},
		{"n=3", []float64{1, 5, 2}, []float64{4, 4, 9}},
		{"n=10080", long, related(long, 1)},
	}
	for _, tc := range cases {
		a, b := Default.Detailed(tc.x, tc.y), Default.Detailed(tc.y, tc.x)
		if a.N != b.N || math.Float64bits(a.Similarity) != math.Float64bits(b.Similarity) ||
			!sameResult(a.Pearson, b.Pearson) || !sameResult(a.Spearman, b.Spearman) ||
			!sameResult(a.Kendall, b.Kendall) {
			t.Errorf("%s: Detailed(x, y) = %+v, Detailed(y, x) = %+v", tc.name, a, b)
		}
	}
}
