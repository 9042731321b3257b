package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkWhisker holds UpperWhisker to the sorting definition over the
// observed values with ==: the same float, not a close one. A signed zero
// may differ in sign only — OrderKey folds -0 onto +0, and the sort leaves
// the two zeros in either order — and == counts them equal. xs must come
// back untouched.
func checkWhisker(t *testing.T, what string, xs []float64, k float64) {
	t.Helper()
	var obs []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			obs = append(obs, x)
		}
	}
	before := append([]float64(nil), xs...)
	got, err := UpperWhisker(xs, k)
	if len(obs) == 0 {
		if err != ErrEmpty {
			t.Fatalf("%s: nothing observed: err = %v, want ErrEmpty", what, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
			t.Fatalf("%s: UpperWhisker modified xs[%d]: %v → %v", what, i, before[i], xs[i])
		}
	}
	want, err := NewBoxplot(obs, k)
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
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
	// Sorted inputs, and the digit boundaries of the radix select: a
	// quartile pair split across two buckets (every value distinct), keys
	// that differ only in their lowest bits, and both signs.
	for _, n := range []int{64, 1000, 4097} {
		asc, desc, pipe := make([]float64, n), make([]float64, n), make([]float64, n)
		ulps, signed := make([]float64, n), make([]float64, n)
		for i := range asc {
			asc[i], desc[i] = float64(i), float64(n-i)
			pipe[i] = float64(min(i, n-i))
			ulps[i] = math.Float64frombits(math.Float64bits(1) + uint64(rng.Intn(5)))
			signed[i] = float64(rng.Intn(7)-3) * math.Pow(2, float64(rng.Intn(40)-20))
		}
		checkWhisker(t, "ascending", asc, DefaultWhiskerK)
		checkWhisker(t, "descending", desc, DefaultWhiskerK)
		checkWhisker(t, "organ pipe", pipe, DefaultWhiskerK)
		checkWhisker(t, "ulps apart", ulps, DefaultWhiskerK)
		checkWhisker(t, "both signs", signed, DefaultWhiskerK)
	}
	// Missing minutes are skipped, as EstimateTau's callers need.
	nan := math.NaN()
	checkWhisker(t, "NaN-riddled", []float64{nan, 3, 0, nan, 0, 9, 1, nan, 700, 2}, DefaultWhiskerK)
	checkWhisker(t, "one observed", []float64{nan, 5, nan}, DefaultWhiskerK)
	checkWhisker(t, "signed zeros", []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, 0}, DefaultWhiskerK)
	for _, xs := range [][]float64{nil, {}, {nan, nan}} {
		if _, err := UpperWhisker(xs, DefaultWhiskerK); err != ErrEmpty {
			t.Errorf("UpperWhisker(%v): err = %v, want ErrEmpty", xs, err)
		}
	}
}

func TestUpperWhiskerWarmCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 20160)
	for i := range xs {
		if rng.Float64() < 0.4 {
			xs[i] = math.Floor(math.Exp(rng.NormFloat64()*2 + 6))
		}
	}
	if _, err := UpperWhisker(xs, DefaultWhiskerK); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { _, _ = UpperWhisker(xs, DefaultWhiskerK) }); a != 0 {
		t.Errorf("warm UpperWhisker allocates %v times, want 0", a)
	}
}

// FuzzUpperWhisker decodes the input as little-endian floats — quantised
// half of the time, so ties and signed zeros are common — and holds the
// result to NewBoxplot over the observed values (checkWhisker).
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
			xs = append(xs, x)
		}
		checkWhisker(t, "fuzz", xs, k)
	})
}

// BenchmarkUpperWhisker times τ_back's whisker on two weeks of minutes:
// "traffic" is idle zeros under integer-byte bursts, "normal" continuous.
func BenchmarkUpperWhisker(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	traffic, normal := make([]float64, 20160), make([]float64, 20160)
	for i := range traffic {
		if rng.Float64() < 0.4 {
			traffic[i] = math.Floor(math.Exp(rng.NormFloat64()*2 + 6))
		}
		normal[i] = rng.NormFloat64()
	}
	for name, xs := range map[string][]float64{"traffic": traffic, "normal": normal} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := UpperWhisker(xs, DefaultWhiskerK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
