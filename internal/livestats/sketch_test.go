package livestats

import (
	"math"
	"math/rand"
	"testing"

	"homesight/internal/stats"
	"homesight/internal/stats/corr"
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

// TestQuantileSketchExactUnderCap: while buffering, quantiles and the
// whisker reproduce the batch statistics bit-for-bit.
func TestQuantileSketchExactUnderCap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := NewQuantileSketch(4096)
	var vals []float64
	for i := 0; i < 3000; i++ {
		v := math.Floor(rng.ExpFloat64() * 500)
		vals = append(vals, v)
		q.Observe(v)
	}
	if q.Sketched() {
		t.Fatal("stream under cap must not be sketched")
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got, want := q.Quantile(p), stats.Quantile(vals, p); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", p, got, want)
		}
	}
	b, err := stats.NewBoxplot(vals, stats.DefaultWhiskerK)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Whisker(); got != b.UpperWhisker {
		t.Errorf("Whisker = %v, want batch %v", got, b.UpperWhisker)
	}
}

// TestQuantileSketchEstimateBeyondCap: once collapsed to P² markers the
// whisker estimate must stay within the documented tolerance of the
// batch whisker on background-shaped (bulk + bursts) traffic.
func TestQuantileSketchEstimateBeyondCap(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	q := NewQuantileSketch(512)
	var vals []float64
	for i := 0; i < 50000; i++ {
		// Background chatter with occasional active bursts — the Sec.
		// 4.1 shape the whisker threshold depends on.
		v := math.Floor(rng.ExpFloat64() * 200)
		if rng.Float64() < 0.02 {
			v += math.Floor(rng.Float64() * 100000)
		}
		vals = append(vals, v)
		q.Observe(v)
	}
	if !q.Sketched() {
		t.Fatal("stream past cap must be sketched")
	}
	b, err := stats.NewBoxplot(vals, stats.DefaultWhiskerK)
	if err != nil {
		t.Fatal(err)
	}
	got := q.Whisker()
	if b.UpperWhisker == 0 {
		t.Fatal("degenerate batch whisker")
	}
	if rel := math.Abs(got-b.UpperWhisker) / b.UpperWhisker; rel > 0.25 {
		t.Errorf("sketched whisker %v vs batch %v: relative error %.3f > 0.25", got, b.UpperWhisker, rel)
	}
	// The estimate is clamped into [Q3, fence] by construction.
	q3 := q.Quantile(0.75)
	if got < q3 {
		t.Errorf("whisker %v below its own Q3 %v", got, q3)
	}
	if got > q.Max() {
		t.Errorf("whisker %v above the observed max %v", got, q.Max())
	}
}

// TestQuantileSketchMonotoneQuantiles: marker heights stay ordered, so
// quantile queries are monotone in p.
func TestQuantileSketchMonotoneQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := NewQuantileSketch(64)
	for i := 0; i < 10000; i++ {
		q.Observe(rng.NormFloat64() * 1000)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.05 {
		v := q.Quantile(p)
		if v < prev-1e-9 {
			t.Fatalf("Quantile(%v) = %v < previous %v", p, v, prev)
		}
		prev = v
	}
}

// TestQuantileSketchIgnoresNonFinite: NaN (a missing observation, per
// background.EstimateTau) and ±Inf never enter the sketch.
func TestQuantileSketchIgnoresNonFinite(t *testing.T) {
	q := NewQuantileSketch(64)
	q.Observe(math.NaN())
	q.Observe(math.Inf(1))
	q.Observe(math.Inf(-1))
	if q.N() != 0 {
		t.Fatalf("N = %d after non-finite observations, want 0", q.N())
	}
	if w := q.Whisker(); w != 0 {
		t.Errorf("empty-sample whisker = %v, want 0 (background.EstimateTau contract)", w)
	}
	for i := 0; i < 10; i++ {
		q.Observe(float64(i))
		q.Observe(math.NaN())
	}
	if q.N() != 10 {
		t.Fatalf("N = %d, want 10", q.N())
	}
}
