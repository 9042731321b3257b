package livestats

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"homesight/internal/background"
	"homesight/internal/stats"
	"homesight/internal/stats/corr"
	"homesight/internal/synth"
)

// TestCoMomentMatchesBatchPearson proves the online Pearson operator is
// the batch coefficient (and p-value) within floating-point noise.
func TestCoMomentMatchesBatchPearson(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(2000)
		xs := make([]float64, n)
		ys := make([]float64, n)
		var cm CoMoment
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			ys[i] = 0.6*xs[i] + rng.NormFloat64()*40
			cm.Add(xs[i], ys[i])
		}
		want, err := corr.Pearson(xs, ys)
		if err != nil {
			t.Fatalf("batch Pearson: %v", err)
		}
		got := cm.Result()
		if got.N != want.N {
			t.Fatalf("trial %d: N = %d, want %d", trial, got.N, want.N)
		}
		if math.Abs(got.Coeff-want.Coeff) > 1e-9 {
			t.Errorf("trial %d: coeff = %v, want %v", trial, got.Coeff, want.Coeff)
		}
		if math.Abs(got.PValue-want.PValue) > 1e-6 {
			t.Errorf("trial %d: p = %v, want %v", trial, got.PValue, want.PValue)
		}
	}
}

// TestCoMomentDegenerate mirrors the batch behaviour on short and
// constant streams: NaN coefficient, p-value 1, never significant.
func TestCoMomentDegenerate(t *testing.T) {
	var short CoMoment
	short.Add(1, 2)
	short.Add(3, 4)
	if r := short.Result(); !math.IsNaN(r.Coeff) || r.PValue != 1 || r.N != 2 {
		t.Errorf("short stream: got %+v, want NaN/1/2", r)
	}
	var flat CoMoment
	for i := 0; i < 100; i++ {
		flat.Add(5, float64(i))
	}
	if r := flat.Result(); !math.IsNaN(r.Coeff) || r.PValue != 1 {
		t.Errorf("constant x: got %+v, want NaN coeff with p 1", r)
	}
	if r := flat.Result(); r.Significant(0.05) {
		t.Error("constant stream must never be significant")
	}
}

// TestRankSketchExactUnderCap: while the stream fits the reservoir the
// sample is complete and in arrival order, so Spearman and Kendall are
// bit-identical to the batch coefficients.
func TestRankSketchExactUnderCap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 500
	rs := NewRankSketch(1024, 99)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = math.Floor(rng.Float64() * 1000) // ties included
		ys[i] = 0.8*xs[i] + math.Floor(rng.Float64()*300)
		rs.Observe(xs[i], ys[i])
	}
	if rs.Sampled() {
		t.Fatal("stream under cap must not report sampling")
	}
	wantS, _ := corr.Spearman(xs, ys)
	wantK, _ := corr.Kendall(xs, ys)
	gotS, gotK := rs.SpearmanKendall()
	if gotS != wantS {
		t.Errorf("Spearman = %+v, want %+v", gotS, wantS)
	}
	if gotK != wantK {
		t.Errorf("Kendall = %+v, want %+v", gotK, wantK)
	}
}

// TestRankSketchEstimateBeyondCap: past the cap the reservoir is a
// uniform sample and the coefficients must land within the documented
// tolerance of the batch answers (STREAMING.md: ±0.15 at cap 512).
func TestRankSketchEstimateBeyondCap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 8192
	rs := NewRankSketch(512, 42)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 1000
		ys[i] = 0.7*xs[i] + rng.ExpFloat64()*400
		rs.Observe(xs[i], ys[i])
	}
	if !rs.Sampled() {
		t.Fatal("stream past cap must report sampling")
	}
	wantS, _ := corr.Spearman(xs, ys)
	wantK, _ := corr.Kendall(xs, ys)
	gotS, gotK := rs.SpearmanKendall()
	if math.Abs(gotS.Coeff-wantS.Coeff) > 0.15 {
		t.Errorf("Spearman estimate %v too far from batch %v", gotS.Coeff, wantS.Coeff)
	}
	if math.Abs(gotK.Coeff-wantK.Coeff) > 0.15 {
		t.Errorf("Kendall estimate %v too far from batch %v", gotK.Coeff, wantK.Coeff)
	}
}

// TestRankSketchDeterministic: the seeded reservoir makes snapshots
// reproducible run to run.
func TestRankSketchDeterministic(t *testing.T) {
	build := func() corr.Result {
		rs := NewRankSketch(64, 7)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5000; i++ {
			x := rng.Float64() * 100
			rs.Observe(x, x+rng.Float64()*10)
		}
		rho, _ := rs.SpearmanKendall()
		return rho
	}
	if a, b := build(), build(); a != b {
		t.Errorf("same stream, same seed produced %+v then %+v", a, b)
	}
}

// sketchOf feeds vals to a fresh sketch.
func sketchOf(vals []uint64) *QuantileSketch {
	q := new(QuantileSketch)
	for _, v := range vals {
		q.Observe(v)
	}
	return q
}

func toFloats(vals []uint64, f func(uint64) uint64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(f(v))
	}
	return out
}

func rawValue(v uint64) uint64 { return v }

// sketchFloor is the value the sketch remembers for v: v itself below
// 8 192, v rounded down to 8 significant bits (within 2^-7) above.
func sketchFloor(v uint64) uint64 { return sketchValue(sketchBucket(v)) }

// flooredWhisker spells the sketch's contract with the batch code: the
// stats.NewBoxplot whisker of the floored stream, or the exact maximum
// when the fence clears it.
func flooredWhisker(vals []uint64) float64 {
	b, err := stats.NewBoxplot(toFloats(vals, sketchFloor), stats.DefaultWhiskerK)
	if err != nil {
		return 0
	}
	if max := float64(slices.Max(vals)); b.Q3+stats.DefaultWhiskerK*b.IQR >= max {
		return max
	}
	return b.UpperWhisker
}

// q3Upper is the larger of the two order statistics the type-7 Q3
// interpolates between — the largest of the four the whisker fence is
// built from.
func q3Upper(vals []uint64) uint64 {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	hi := int(math.Floor(probQ3*float64(len(sorted)-1))) + 1
	return sorted[min(hi, len(sorted)-1)]
}

// checkWhisker holds one sketch to both halves of its contract: always
// the batch whisker of the floored stream, and the batch whisker of the
// raw stream — background.EstimateTau, bit for bit — whenever the
// quartile order statistics and the whisker are below 8 192. It reports
// whether the second half applied.
func checkWhisker(t testing.TB, q *QuantileSketch, vals []uint64) (exact bool) {
	t.Helper()
	got := q.Whisker()
	if want := flooredWhisker(vals); got != want {
		t.Fatalf("whisker = %v, want %v (batch whisker of the floored stream), n=%d", got, want, len(vals))
	}
	if got > float64(q.Max()) {
		t.Fatalf("whisker %v above the observed max %d", got, q.Max())
	}
	if q3Upper(vals) >= 1<<sketchLinearBits || got >= 1<<sketchLinearBits {
		return false
	}
	want := background.EstimateTau(toFloats(vals, rawValue))
	if got != want {
		t.Fatalf("linear-range whisker = %v, want EstimateTau %v, n=%d", got, want, len(vals))
	}
	if g, w := (background.Threshold{TauIn: got}).Tau(), (background.Threshold{TauIn: want}).Tau(); g != w {
		t.Fatalf("capped tau = %v, want %v", g, w)
	}
	return true
}

// TestQuantileSketchExactUnderCap: a stream that stays under the
// unit-bucket range (8 192 bytes, above background.CapBytes) reproduces
// the batch quantiles and whisker bit-for-bit at any depth.
func TestQuantileSketchExactUnderCap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := new(QuantileSketch)
	var vals []uint64
	for i := 0; i < 20000; i++ {
		v := min(uint64(rng.ExpFloat64()*500), 1<<sketchLinearBits-1)
		vals = append(vals, v)
		q.Observe(v)
	}
	raw := toFloats(vals, rawValue)
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got, want := q.Quantile(p), stats.Quantile(raw, p); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !checkWhisker(t, q, vals) {
		t.Error("a stream under 8 192 must be held to EstimateTau")
	}
}

// TestQuantileSketchExactBeyondOldBuffer walks synth device series past
// 1×, 4× and 16× the 4 096-value buffer the sketch used to collapse at.
// At every depth the whisker is EstimateTau of the same prefix bit for bit
// when the quartiles and whisker sit in the unit-bucket range — the bulk
// of devices, whose background chatter owns the box — and within 2^-6
// of it otherwise.
func TestQuantileSketchExactBeyondOldBuffer(t *testing.T) {
	dep := synth.NewDeployment(synth.Config{Homes: 2, Weeks: 7, Seed: 42})
	series, exact := 0, 0
	for h := 0; h < dep.NumHomes(); h++ {
		for _, dt := range dep.Home(h).Traffic() {
			for _, ser := range [][]float64{dt.In.Values, dt.Out.Values} {
				var vals []uint64
				q := new(QuantileSketch)
				for _, v := range ser {
					if math.IsNaN(v) {
						continue
					}
					vals = append(vals, uint64(v))
					q.Observe(uint64(v))
					if n := len(vals); n != 4096 && n != 4*4096 && n != 16*4096 {
						continue
					}
					series++
					if checkWhisker(t, q, vals) {
						exact++
						continue
					}
					want := background.EstimateTau(toFloats(vals, rawValue))
					if got := q.Whisker(); math.Abs(got-want) > want/64 {
						t.Errorf("home %d %s n=%d: whisker %v vs batch %v: off by more than 2^-6", h, dt.Spec.Device.MAC, len(vals), got, want)
					}
				}
			}
		}
	}
	if series == 0 || exact*4 < series*3 {
		t.Errorf("%d of %d synth prefixes were held to bit equality, want at least three quarters", exact, series)
	}
	t.Logf("%d of %d synth prefixes bit-equal to EstimateTau, the rest within 2^-6", exact, series)
}

// TestQuantileSketchBoundaries pins the bucket geometry at its seams and
// the degenerate streams.
func TestQuantileSketchBoundaries(t *testing.T) {
	for _, tc := range []struct{ v, floor uint64 }{
		{0, 0}, {1, 1}, {8191, 8191}, {8192, 8192}, {8193, 8192}, {8255, 8192}, {8256, 8256},
		{39999, 39936}, {40000, 39936}, {40001, 39936}, {40192, 40192},
		{1 << 32, 1 << 32}, {1<<32 + 1, 1 << 32}, {math.MaxUint64, 255 << 56},
	} {
		if got := sketchFloor(tc.v); got != tc.floor {
			t.Errorf("sketchFloor(%d) = %d, want %d", tc.v, got, tc.floor)
		}
		if tc.v-tc.floor > tc.v>>sketchPageBits {
			t.Errorf("sketchFloor(%d) = %d is more than 2^-7 below", tc.v, tc.floor)
		}
		// A bucket's smallest value is its own floor, and the one before
		// it belongs to the bucket below.
		if page, slot := sketchBucket(tc.floor); sketchValue(page, slot) != tc.floor {
			t.Errorf("bucket of %d starts at %d", tc.floor, sketchValue(page, slot))
		}
		if tc.floor > 0 && sketchFloor(tc.floor-1) >= tc.floor {
			t.Errorf("%d and %d share a bucket", tc.floor-1, tc.floor)
		}
		// A single observation is its own box: the floor, or the exact
		// value when the floor already clears it.
		one := sketchOf([]uint64{tc.v})
		if got := one.Whisker(); got != float64(tc.floor) || one.Max() != tc.v || one.N() != 1 {
			t.Errorf("single %d: whisker %v, max %d, n %d", tc.v, got, one.Max(), one.N())
		}
		checkWhisker(t, one, []uint64{tc.v})
		same := []uint64{tc.v, tc.v, tc.v, tc.v, tc.v, tc.v, tc.v}
		checkWhisker(t, sketchOf(same), same)
	}
	if page, _ := sketchBucket(math.MaxUint64); page != sketchPages-1 {
		t.Errorf("MaxUint64 lands in page %d of %d", page, sketchPages)
	}
	var empty QuantileSketch
	if w := empty.Whisker(); w != 0 || !math.IsNaN(empty.Quantile(0.5)) || empty.Max() != 0 {
		t.Errorf("empty sketch: whisker %v, median %v, max %d", w, empty.Quantile(0.5), empty.Max())
	}
}

// TestQuantileSketchGroupBoundaries documents the one verdict-level
// caveat of the 2^-7 buckets. background.CapBytes (5 000) lies in the
// unit-bucket range, so a τ is never moved across it; background.LargeBytes
// (40 000) lies inside the bucket [39 936, 40 192), so a raw τ in
// (40 000, 40 192) reads as 39 936 and lands in Medium where the batch
// says Large.
func TestQuantileSketchGroupBoundaries(t *testing.T) {
	group := func(v uint64) (live, batch background.Group) {
		vals := []uint64{v, v, v, v, v}
		return background.GroupOf(sketchOf(vals).Whisker()), background.GroupOf(background.EstimateTau(toFloats(vals, rawValue)))
	}
	for _, v := range []uint64{4999, 5000, 5001, 8191, 39935, 39936, 40000, 40192, 40193} {
		if live, batch := group(v); live != batch {
			t.Errorf("τ %d: live group %s, batch %s", v, live, batch)
		}
	}
	for _, v := range []uint64{40001, 40100, 40191} {
		if live, batch := group(v); live != background.Medium || batch != background.Large {
			t.Errorf("τ %d: live group %s, batch %s; want the documented medium/large split", v, live, batch)
		}
	}
}

// TestQuantileSketchMonotoneQuantiles: over a stream spanning both bucket
// ranges every quantile is stats.Quantile of the floored stream, so
// queries are monotone in p.
func TestQuantileSketchMonotoneQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var vals []uint64
	for i := 0; i < 10000; i++ {
		vals = append(vals, uint64(rng.ExpFloat64()*6000))
	}
	q := sketchOf(vals)
	floored := toFloats(vals, sketchFloor)
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.05 {
		v := q.Quantile(p)
		if want := stats.Quantile(floored, p); v != want {
			t.Fatalf("Quantile(%v) = %v, want %v", p, v, want)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", p, v, prev)
		}
		prev = v
	}
}

// TestRankSketchDrawIsUniform: past the cap, Algorithm R keeps every
// stream position with probability cap/n. Over 2 048 seeds of a cap-64
// reservoir fed n = 8·cap pairs, each position's inclusion count is
// Binomial(seeds, cap/n); the standardised squared deviations summed over
// the n positions are held under the 99.9th percentile of χ² with n − 1
// degrees of freedom (the counts sum to seeds·cap). A draw over [0, cap)
// instead of [0, n) keeps only the last cap positions and fails by orders
// of magnitude.
func TestRankSketchDrawIsUniform(t *testing.T) {
	const seeds, capacity, n = 2048, 64, 8 * 64
	var counts [n]int
	for seed := int64(0); seed < seeds; seed++ {
		rs := NewRankSketch(capacity, seed)
		for i := 0; i < n; i++ {
			rs.Observe(float64(i), 0)
		}
		for _, x := range rs.xs {
			counts[int(x)]++
		}
	}
	p := float64(capacity) / n
	mean, variance := seeds*p, seeds*p*(1-p)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - mean
		chi2 += d * d / variance
	}
	// Wilson–Hilferty: χ²_k at upper quantile z is k·(1 − 2/9k + z·√(2/9k))³.
	k := float64(n - 1)
	bound := k * math.Pow(1-2/(9*k)+3.09*math.Sqrt(2/(9*k)), 3)
	if chi2 > bound {
		t.Errorf("inclusion χ² = %.1f over %d positions, above the 99.9%% bound %.1f", chi2, n, bound)
	}
	t.Logf("inclusion χ² = %.1f (df %d, 99.9%% bound %.1f)", chi2, n-1, bound)
}

// observeDirect is Observe counting v at once, without the fold buffer:
// the reference the buffered sketch is held to.
func observeDirect(q *QuantileSketch, v uint64) {
	q.n++
	if v > q.max {
		q.max = v
	}
	page, slot := sketchBucket(v)
	p := q.pages[page]
	if p == nil {
		p = new(sketchPage)
		q.pages[page] = p
	}
	p[slot]++
}

// checkFoldMatchesDirect holds a buffered sketch over every prefix of
// vals up to 3·sketchFold+1 values, and over all of vals, to the
// direct-increment reference, bit for bit: Whisker first, so a read that
// skips the fold shows, then the quartiles and extremes, N and Max.
func checkFoldMatchesDirect(t testing.TB, vals []uint64) {
	t.Helper()
	for l := 0; l <= len(vals); l++ {
		if l > 3*sketchFold+1 && l < len(vals) {
			l = len(vals)
		}
		got, want := new(QuantileSketch), new(QuantileSketch)
		for _, v := range vals[:l] {
			got.Observe(v)
			observeDirect(want, v)
		}
		if got.N() != want.N() || got.Max() != want.Max() {
			t.Fatalf("prefix %d: N %d, Max %d; direct %d, %d", l, got.N(), got.Max(), want.N(), want.Max())
		}
		if g, w := got.Whisker(), want.Whisker(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("prefix %d: Whisker %v, direct %v", l, g, w)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if g, w := got.Quantile(p), want.Quantile(p); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("prefix %d: Quantile(%v) %v, direct %v", l, p, g, w)
			}
		}
	}
}

// TestQuantileSketchFoldMatchesDirect: buffering observations and folding
// them in bursts reads exactly as counting each one at once, at every
// fill of the buffer.
func TestQuantileSketchFoldMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	constant := make([]uint64, 3*sketchFold+5)
	for i := range constant {
		constant[i] = 4096
	}
	mixed := make([]uint64, 200)
	for i := range mixed {
		mixed[i] = uint64(rng.ExpFloat64() * 6000)
		if i%17 == 0 {
			mixed[i] <<= 20
		}
	}
	for name, vals := range map[string][]uint64{
		"ascending":  {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946, 17711, 28657, 46368},
		"constant":   constant,
		"background": mixed[:3*sketchFold+1],
		"mixed":      mixed,
	} {
		t.Run(name, func(t *testing.T) { checkFoldMatchesDirect(t, vals) })
	}
}

// The sketch accessors below read what only the tests check: the
// production paths read Whisker and the reservoir's coefficients.

// N returns the number of pairs offered to the reservoir.
func (r *RankSketch) N() int64 { return r.n }

// N returns the number of observations consumed.
func (q *QuantileSketch) N() int64 { return q.n }

// Max returns the largest observation so far, exactly (0 before any).
func (q *QuantileSketch) Max() uint64 { return q.max }

// Quantile returns the p-th type-7 sample quantile of the remembered
// values. It returns NaN before any observation.
func (q *QuantileSketch) Quantile(p float64) float64 {
	if q.n == 0 {
		return math.NaN()
	}
	q.fold()
	return q.quantile(p)
}
