package corr

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"homesight/internal/stats/dist"
)

// oracleRanks is the naive O(n²) average rank: one plus the number of
// smaller values plus half the number of other equal values.
func oracleRanks(xs []float64) []float64 {
	ranks := make([]float64, len(xs))
	for i, v := range xs {
		less, equal := 0, 0
		for _, w := range xs {
			switch {
			case w < v:
				less++
			case w == v:
				equal++
			}
		}
		ranks[i] = float64(less) + float64(equal+1)/2
	}
	return ranks
}

// oracleSpearman is Pearson on the naive ranks.
func oracleSpearman(x, y []float64) Result {
	r, _ := Pearson(oracleRanks(x), oracleRanks(y))
	return r
}

// oracleKendall is the textbook O(n²) τ-b: classify every pair, then the
// tie-corrected normal p-value from tie-group sizes counted by brute force.
func oracleKendall(x, y []float64) Result {
	n := len(x)
	var conc, disc, tiedX, tiedY float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case x[i] == x[j] && y[i] == y[j]:
				tiedX++
				tiedY++
			case x[i] == x[j]:
				tiedX++
			case y[i] == y[j]:
				tiedY++
			case (x[i] < x[j]) == (y[i] < y[j]):
				conc++
			default:
				disc++
			}
		}
	}
	fn := float64(n)
	n0 := fn * (fn - 1) / 2
	den := math.Sqrt((n0 - tiedX) * (n0 - tiedY))
	if den == 0 {
		return undefined(n)
	}
	// Each tie group is visited once, at its first member.
	groups := func(xs []float64) (v, t1, t2 float64) {
		for i, a := range xs {
			t, firstSeen := 0.0, true
			for j, b := range xs {
				if a == b {
					t++
					if j < i {
						firstSeen = false
					}
				}
			}
			if firstSeen {
				v += t * (t - 1) * (2*t + 5)
				t1 += t * (t - 1)
				t2 += t * (t - 1) * (t - 2)
			}
		}
		return v, t1, t2
	}
	vx, x1, x2 := groups(x)
	vy, y1, y2 := groups(y)
	variance := (fn*(fn-1)*(2*fn+5)-vx-vy)/18 + x2*y2/(9*fn*(fn-1)*(fn-2)) + x1*y1/(2*fn*(fn-1))
	s := conc - disc
	p := 1.0
	if variance > 0 {
		p = 2 * dist.StdNormal.Survival(math.Abs(s/math.Sqrt(variance)))
	}
	return Result{Coeff: math.Max(-1, math.Min(1, s/den)), PValue: p, N: n}
}

// sameResult compares a kernel result against the oracle's: NaN-ness must
// agree, and finite values must agree to tol.
func sameResult(got, want Result, tol float64) error {
	if got.N != want.N {
		return fmt.Errorf("N = %d, want %d", got.N, want.N)
	}
	if math.IsNaN(got.Coeff) != math.IsNaN(want.Coeff) {
		return fmt.Errorf("coeff = %v, want %v", got.Coeff, want.Coeff)
	}
	if !math.IsNaN(want.Coeff) && math.Abs(got.Coeff-want.Coeff) > tol {
		return fmt.Errorf("coeff = %.15g, want %.15g", got.Coeff, want.Coeff)
	}
	if math.Abs(got.PValue-want.PValue) > tol {
		return fmt.Errorf("p = %.15g, want %.15g", got.PValue, want.PValue)
	}
	return nil
}

// checkKernelAgainstOracle runs the kernel k on (x, y) and compares the
// fused pair, and each coefficient computed alone, with the oracle.
func checkKernelAgainstOracle(t *testing.T, k *rankKernel, x, y []float64) {
	t.Helper()
	rho, tau := k.pair(x, y, true, true)
	if err := sameResult(rho, oracleSpearman(x, y), 1e-12); err != nil {
		t.Errorf("spearman n=%d: %v\nx=%v\ny=%v", len(x), err, x, y)
	}
	if err := sameResult(tau, oracleKendall(x, y), 1e-12); err != nil {
		t.Errorf("kendall n=%d: %v\nx=%v\ny=%v", len(x), err, x, y)
	}
	if alone, _ := k.pair(x, y, true, false); math.Float64bits(alone.Coeff) != math.Float64bits(rho.Coeff) || alone.PValue != rho.PValue {
		t.Errorf("spearman alone %+v != fused %+v", alone, rho)
	}
	if _, alone := k.pair(x, y, false, true); math.Float64bits(alone.Coeff) != math.Float64bits(tau.Coeff) || alone.PValue != tau.PValue {
		t.Errorf("kendall alone %+v != fused %+v", alone, tau)
	}
}

// sameBits reports whether two results are the same bits.
func sameBits(a, b Result) bool {
	return math.Float64bits(a.Coeff) == math.Float64bits(b.Coeff) &&
		math.Float64bits(a.PValue) == math.Float64bits(b.PValue) && a.N == b.N
}

// checkRankedEntry holds the ranked-y entry (Ranked.Complete) and the
// plain Complete bit-equal to Pearson and SpearmanKendall on the complete
// pairs of (x, y), compacted here by hand. r is reused across calls, as a
// gateway's ranking is across its devices.
func checkRankedEntry(t *testing.T, r *Ranked, x, y []float64) {
	t.Helper()
	var cx, cy []float64
	for i := range x {
		if !math.IsNaN(x[i]) && !math.IsNaN(y[i]) {
			cx, cy = append(cx, x[i]), append(cy, y[i])
		}
	}
	var wantP, wantRho, wantTau Result
	if len(cx) >= 3 {
		wantP, _ = Pearson(cx, cy)
		wantRho, wantTau, _ = SpearmanKendall(cx, cy)
	}
	r.Rank(y)
	for _, entry := range []string{"Ranked.Complete", "Complete"} {
		var p, rho, tau Result
		var n int
		if entry == "Complete" {
			p, rho, tau, n = Complete(x, y)
		} else {
			p, rho, tau, n = r.Complete(x)
		}
		if n != len(cx) || !sameBits(p, wantP) || !sameBits(rho, wantRho) || !sameBits(tau, wantTau) {
			t.Errorf("%s n=%d: got (%d, %+v, %+v, %+v), want (%d, %+v, %+v, %+v)\nx=%v\ny=%v",
				entry, len(x), n, p, rho, tau, len(cx), wantP, wantRho, wantTau, x, y)
		}
	}
}

// checkSwapSymmetric holds Complete(x, y) bit-equal to Complete(y, x):
// the first metamorphic relation of Definition 1, and what lets a window
// graph store one triangle while its callers score pairs in either order.
func checkSwapSymmetric(t *testing.T, x, y []float64) {
	t.Helper()
	p, rho, tau, n := Complete(x, y)
	sp, srho, stau, sn := Complete(y, x)
	if n != sn || !sameBits(p, sp) || !sameBits(rho, srho) || !sameBits(tau, stau) {
		t.Errorf("Complete(x, y) = (%d, %+v, %+v, %+v), Complete(y, x) = (%d, %+v, %+v, %+v)\nx=%v\ny=%v",
			n, p, rho, tau, sn, sp, srho, stau, x, y)
	}
}

func TestRankKernelMatchesOracle(t *testing.T) {
	var k rankKernel // one kernel across every size, growing and shrinking
	seed := int64(1000)
	for _, n := range []int{1024, 3, 257, 4, 64, 5, 300, 16} {
		for _, kind := range goldenKinds {
			seed++
			x, y := goldenInput(kind, seed, n)
			checkKernelAgainstOracle(t, &k, x, y)
		}
	}
}

func TestRankEdgeCases(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	isUndefined := func(r Result, n int) bool {
		return math.IsNaN(r.Coeff) && r.PValue == 1 && r.N == n && !r.Significant(0.05)
	}
	undefinedCases := []struct {
		name string
		x, y []float64
	}{
		{"NaN in x", []float64{1, nan, 3, 4}, []float64{1, 2, 3, 4}},
		{"NaN in y", []float64{1, 2, 3, 4}, []float64{4, 3, nan, 1}},
		{"NaN in both", []float64{nan, 2, 3}, []float64{nan, 2, 3}},
		{"all NaN", []float64{nan, nan, nan}, []float64{nan, nan, nan}},
		{"negative-sign NaN", []float64{1, 2, math.Copysign(nan, -1)}, []float64{1, 2, 3}},
		{"constant x", []float64{7, 7, 7, 7}, []float64{1, 2, 3, 4}},
		{"constant y", []float64{1, 2, 3, 4}, []float64{0, 0, 0, 0}},
		{"all tied both", []float64{2, 2, 2}, []float64{5, 5, 5}},
		{"signed zeros are one constant", []float64{0, negZero, 0, negZero}, []float64{1, 2, 3, 4}},
	}
	for _, c := range undefinedCases {
		rho, tau, err := SpearmanKendall(c.x, c.y)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !isUndefined(rho, len(c.x)) || !isUndefined(tau, len(c.x)) {
			t.Errorf("%s: want NaN/p=1/N=%d for both, got ρ=%+v τ=%+v", c.name, len(c.x), rho, tau)
		}
		// The thin wrappers must say the same.
		if s, _ := Spearman(c.x, c.y); !isUndefined(s, len(c.x)) {
			t.Errorf("%s: Spearman = %+v", c.name, s)
		}
		if k, _ := Kendall(c.x, c.y); !isUndefined(k, len(c.x)) {
			t.Errorf("%s: Kendall = %+v", c.name, k)
		}
	}

	// -0 and +0 tie: replacing one by the other changes nothing.
	x := []float64{0, 3, negZero, 1, 0, 5, negZero}
	y := []float64{2, negZero, 0, 1, 9, 0, 4}
	abs := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, f := range v {
			out[i] = math.Abs(f)
		}
		return out
	}
	rho, tau, _ := SpearmanKendall(x, y)
	rhoAbs, tauAbs, _ := SpearmanKendall(abs(x), abs(y))
	if rho != rhoAbs || tau != tauAbs {
		t.Errorf("signed zeros do not tie: ρ %+v vs %+v, τ %+v vs %+v", rho, rhoAbs, tau, tauAbs)
	}
	var k rankKernel
	checkKernelAgainstOracle(t, &k, x, y)

	// ±Inf order as floats do: they are the extreme ranks.
	checkKernelAgainstOracle(t, &k, []float64{-inf, -1, negZero, 1, inf}, []float64{1, 2, 3, 4, 5})
	rho, tau, _ = SpearmanKendall([]float64{-inf, -1, 0, 1, inf}, []float64{1, 2, 3, 4, 5})
	if rho.Coeff != 1 || tau.Coeff != 1 {
		t.Errorf("monotone with infinities: ρ=%v τ=%v, want 1, 1", rho.Coeff, tau.Coeff)
	}

	// n = 3, the shortest legal sample.
	checkKernelAgainstOracle(t, &k, []float64{3, 1, 2}, []float64{1, 3, 2})
	checkKernelAgainstOracle(t, &k, []float64{1, 1, 2}, []float64{1, 2, 2})

	// The ranked-y entry on the same edges: NaNs leave the pair (not the
	// whole sample), signed zeros tie, infinities are extreme, a tied side
	// is undefined, and fewer than three complete pairs is no result.
	var r Ranked
	for _, c := range undefinedCases {
		checkRankedEntry(t, &r, c.x, c.y)
	}
	checkRankedEntry(t, &r, x, y)
	checkRankedEntry(t, &r, []float64{-inf, -1, negZero, 1, inf}, []float64{1, 2, 3, 4, 5})
	checkRankedEntry(t, &r, []float64{3, 1, 2}, []float64{1, 3, 2})
	checkRankedEntry(t, &r, []float64{nan, 1, 2, 3, 4}, []float64{4, nan, 2, 2, 1})
	checkRankedEntry(t, &r, []float64{1, 2, nan}, []float64{nan, 2, 3})

	if _, _, err := SpearmanKendall([]float64{1, 2}, []float64{1}); err != ErrLength {
		t.Errorf("want ErrLength, got %v", err)
	}
	if _, _, err := SpearmanKendall([]float64{1, 2}, []float64{1, 2}); err != ErrTooShort {
		t.Errorf("want ErrTooShort, got %v", err)
	}
}

// FuzzRankKernel decodes the input as little-endian (x, y) float pairs —
// quantised half of the time, so ties, joint ties and signed zeros are
// common — and checks the kernel against the O(n²) oracle, the ranked-y
// entry bit for bit against the plain one on the complete pairs, and
// Complete for symmetry bit for bit.
// One kernel and one Ranked serve every input a worker sees, so their
// buffers are reused across calls of different n.
func FuzzRankKernel(f *testing.F) {
	pack := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// testdata/fuzz/FuzzRankKernel holds the rest of the seed corpus:
	// heavy ties, signed zeros and infinities, NaN, a discordant run, an
	// all-constant sample.
	f.Add(pack(1, 2, 2, 4, 3, 6), false)
	f.Add(pack(-1.5, 2.25, 3e300, -4e-300, 5, 5, 1e-310, -1e-310, 0, 0), false)
	var k rankKernel
	var r Ranked
	f.Fuzz(func(t *testing.T, data []byte, quantise bool) {
		n := min(len(data)/16, 256)
		if n < 3 {
			return
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			if quantise {
				x[i], y[i] = math.Round(math.Mod(x[i], 4)), math.Round(math.Mod(y[i], 4))
			}
		}
		checkRankedEntry(t, &r, x, y)
		checkSwapSymmetric(t, x, y)
		hasNaN := false
		for i := range x {
			hasNaN = hasNaN || math.IsNaN(x[i]) || math.IsNaN(y[i])
		}
		if hasNaN {
			rho, tau := k.pair(x, y, true, true)
			if !math.IsNaN(rho.Coeff) || rho.PValue != 1 || !math.IsNaN(tau.Coeff) || tau.PValue != 1 {
				t.Fatalf("NaN input: ρ=%+v τ=%+v, want NaN/p=1", rho, tau)
			}
			return
		}
		checkKernelAgainstOracle(t, &k, x, y)
	})
}

func TestRankKernelWarmCallAllocatesNothing(t *testing.T) {
	x, y := goldenInput("traffic", 1, 1024)
	small, _ := goldenInput("normal", 2, 100)
	var k rankKernel
	k.pair(x, y, true, true)
	if a := testing.AllocsPerRun(20, func() {
		k.pair(x, y, true, true)
		k.pair(small, small, true, true)
	}); a != 0 {
		t.Errorf("warm kernel call allocates %v times, want 0", a)
	}
	// The pooled entry points, the ranked one included.
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var r Ranked
	r.Rank(y)
	if a := testing.AllocsPerRun(20, func() {
		_, _, _ = SpearmanKendall(x, y)
		_, _, _, _ = Complete(x, y)
		_, _, _, _ = r.Complete(x)
		r.Rank(y)
	}); a != 0 {
		t.Errorf("warm SpearmanKendall / Complete / Ranked allocates %v times, want 0", a)
	}
}

func BenchmarkSpearmanKendall(b *testing.B) {
	for _, kind := range []string{"traffic", "normal"} {
		for _, n := range []int{1024, 10080} {
			x, y := goldenInput(kind, 1, n)
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := SpearmanKendall(x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
