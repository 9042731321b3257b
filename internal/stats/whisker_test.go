package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkWhisker holds UpperWhisker to the sorting definition with ==: the
// same float, not a close one (so a signed zero may differ in sign only).
func checkWhisker(t *testing.T, what string, xs []float64, k float64) {
	t.Helper()
	want, err := NewBoxplot(xs, k)
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	work := append([]float64(nil), xs...)
	got, err := UpperWhisker(work, k)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got != want.UpperWhisker && !(math.IsNaN(got) && math.IsNaN(want.UpperWhisker)) {
		t.Fatalf("%s (n=%d, k=%g): UpperWhisker = %v, NewBoxplot says %v\nxs = %v",
			what, len(xs), k, got, want.UpperWhisker, clipFloats(xs))
	}
}

func clipFloats(xs []float64) []float64 {
	if len(xs) > 24 {
		return xs[:24]
	}
	return xs
}

func TestUpperWhiskerMatchesBoxplot(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	inf := math.Inf(1)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 100, 1441, 10080} {
		for rep := 0; rep < 8; rep++ {
			normal := make([]float64, n)
			traffic := make([]float64, n)   // ≥ 50 % zeros under heavy-tailed bursts, integer bytes
			quantised := make([]float64, n) // few distinct values: quartiles fall inside runs of ties
			boxed := make([]float64, n)     // Q1 == Q3: a zero IQR puts the fence on the quartile
			for i := range normal {
				normal[i] = rng.NormFloat64() * 1e3
				if rng.Float64() < 0.4 {
					traffic[i] = math.Floor(math.Exp(rng.NormFloat64()*2 + 6))
				}
				quantised[i] = float64(rng.Intn(4))
				boxed[i] = 7
				if rng.Float64() < 0.1 {
					boxed[i] = float64(rng.Intn(100))
				}
			}
			constant := make([]float64, n)
			for i := range constant {
				constant[i] = 42
			}
			withInf := append([]float64(nil), normal...)
			withInf[rng.Intn(n)] = inf
			withInf[rng.Intn(n)] = -inf
			manyInf := append([]float64(nil), traffic...)
			for i := range manyInf {
				if rng.Float64() < 0.3 {
					manyInf[i] = inf
				}
			}
			for _, k := range []float64{DefaultWhiskerK, 0, 3} {
				checkWhisker(t, "normal", normal, k)
				checkWhisker(t, "traffic", traffic, k)
				checkWhisker(t, "quantised", quantised, k)
				checkWhisker(t, "equal quartiles", boxed, k)
				checkWhisker(t, "constant", constant, k)
				checkWhisker(t, "±Inf", withInf, k)
				checkWhisker(t, "many +Inf", manyInf, k)
			}
		}
	}
	// Orders a median-of-three pivot handles worst.
	for _, n := range []int{64, 1000, 4097} {
		asc, desc, pipe := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range asc {
			asc[i], desc[i] = float64(i), float64(n-i)
			pipe[i] = float64(min(i, n-i))
		}
		checkWhisker(t, "ascending", asc, DefaultWhiskerK)
		checkWhisker(t, "descending", desc, DefaultWhiskerK)
		checkWhisker(t, "organ pipe", pipe, DefaultWhiskerK)
	}
	if _, err := UpperWhisker(nil, DefaultWhiskerK); err != ErrEmpty {
		t.Errorf("empty sample: err = %v, want ErrEmpty", err)
	}
}

// TestSelectRank checks the selection contract at every round budget,
// including the ones small enough that the sort fallback finishes the job
// (the budget orderPair grants is generous enough that no input above
// exhausts it).
func TestSelectRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for rep := 0; rep < 300; rep++ {
		n := 2 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(50))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		r, rounds := rng.Intn(n), rng.Intn(4)
		if rep%2 == 0 {
			rounds = 64
		}
		selectRank(xs, r, rounds)
		if xs[r] != sorted[r] {
			t.Fatalf("rank %d of %d, %d rounds: got %v, want %v", r, n, rounds, xs[r], sorted[r])
		}
		for i, x := range xs {
			if (i < r && x > xs[r]) || (i > r && x < xs[r]) {
				t.Fatalf("rank %d of %d, %d rounds: a[%d] = %v on the wrong side of %v", r, n, rounds, i, x, xs[r])
			}
		}
	}
}

// FuzzUpperWhisker decodes the input as little-endian floats — quantised
// half of the time, so ties and signed zeros are common — drops the NaNs
// (UpperWhisker's callers do) and holds the result to NewBoxplot.
func FuzzUpperWhisker(f *testing.F) {
	pack := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(pack(3), false, 1.5)
	f.Add(pack(0, 0, 0, 0, 0, 7, 900, 0, 0, 12), false, 1.5)
	f.Add(pack(1, 2, 3, 4, 5, 6, 7, 8), true, 0.0)
	f.Add(pack(math.Inf(1), -1, math.Inf(-1), 1, math.Copysign(0, -1), 0), false, 3.0)
	f.Add(pack(5, 5, 5, 5, math.NaN(), 5), false, 1.5)
	f.Fuzz(func(t *testing.T, data []byte, quantise bool, k float64) {
		var xs []float64
		for i := 0; i+8 <= len(data) && len(xs) < 512; i += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			if quantise {
				x = math.Round(math.Mod(x, 4))
			}
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return
		}
		checkWhisker(t, "fuzz", xs, k)
	})
}
