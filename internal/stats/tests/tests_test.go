package tests

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKSSameSample(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	r, err := KolmogorovSmirnov(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if r.D != 0 {
		t.Errorf("D = %g, want 0 for identical samples", r.D)
	}
	if r.Rejected(0.05) {
		t.Error("identical samples must not be rejected")
	}
}

func TestKSDisjointSamples(t *testing.T) {
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) + 1000
	}
	r, err := KolmogorovSmirnov(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.D != 1 {
		t.Errorf("D = %g, want 1 for disjoint supports", r.D)
	}
	if !r.Rejected(0.001) {
		t.Errorf("disjoint samples must be decisively rejected, p=%g", r.PValue)
	}
}

func TestKSKnownD(t *testing.T) {
	// x = {1,2,3,4}, y = {3,4,5,6}: max gap of the ECDFs is 0.5 at v in [2,3).
	r, err := KolmogorovSmirnov([]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.D-0.5) > 1e-12 {
		t.Errorf("D = %g, want 0.5", r.D)
	}
}

func TestKSSameDistributionRarelyRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rejected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		x := make([]float64, 80)
		y := make([]float64, 60)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		for j := range y {
			y[j] = rng.NormFloat64()
		}
		r, err := KolmogorovSmirnov(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rejected(0.05) {
			rejected++
		}
	}
	if frac := float64(rejected) / trials; frac > 0.12 {
		t.Errorf("false rejection rate %.2f, want <= ~0.05", frac)
	}
}

func TestKSDetectsScaleShift(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := make([]float64, 400)
	y := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()*3 + 1
	}
	r, _ := KolmogorovSmirnov(x, y)
	if !r.Rejected(0.01) {
		t.Errorf("scale+location shift not rejected, p=%g", r.PValue)
	}
}

func TestKSSymmetricQuick(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 5+rng.Intn(50))
		y := make([]float64, 5+rng.Intn(50))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.ExpFloat64()
		}
		a, err1 := KolmogorovSmirnov(x, y)
		b, err2 := KolmogorovSmirnov(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.D-b.D) < 1e-12 && math.Abs(a.PValue-b.PValue) < 1e-12
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestKSEmpty(t *testing.T) {
	if _, err := KolmogorovSmirnov(nil, []float64{1}); err != ErrTooShort {
		t.Errorf("want ErrTooShort, got %v", err)
	}
}

func TestADFStationarySeries(t *testing.T) {
	// Strongly mean-reverting AR(1): unit root should be rejected.
	rng := rand.New(rand.NewSource(31))
	y := make([]float64, 500)
	for i := 1; i < len(y); i++ {
		y[i] = 0.3*y[i-1] + rng.NormFloat64()
	}
	r, err := ADF(y, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.PValue > 0.0101 {
		t.Errorf("stationary AR(1) p = %g, want <= 0.01 (stat %g)", r.PValue, r.Stat)
	}
}

func TestADFRandomWalk(t *testing.T) {
	// Random walk has a unit root: ADF must fail to reject.
	rng := rand.New(rand.NewSource(32))
	y := make([]float64, 500)
	for i := 1; i < len(y); i++ {
		y[i] = y[i-1] + rng.NormFloat64()
	}
	r, err := ADF(y, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.PValue < 0.05 {
		t.Errorf("random walk rejected with p = %g (stat %g)", r.PValue, r.Stat)
	}
}

func TestADFTooShort(t *testing.T) {
	if _, err := ADF(make([]float64, 5), 2); err != ErrTooShort {
		t.Errorf("want ErrTooShort, got %v", err)
	}
}

func TestKPSSStationarySeries(t *testing.T) {
	// White noise is level-stationary: KPSS must not reject.
	rng := rand.New(rand.NewSource(33))
	y := make([]float64, 500)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	r, err := KPSS(y, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.PValue < 0.0999 {
		t.Errorf("white noise KPSS p = %g, want 0.10 (stat %g)", r.PValue, r.Stat)
	}
}

func TestKPSSRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	y := make([]float64, 500)
	for i := 1; i < len(y); i++ {
		y[i] = y[i-1] + rng.NormFloat64()
	}
	r, err := KPSS(y, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.PValue > 0.0101 {
		t.Errorf("random walk KPSS p = %g, want <= 0.01 (stat %g)", r.PValue, r.Stat)
	}
}

func TestKPSSConstantSeries(t *testing.T) {
	y := make([]float64, 50)
	for i := range y {
		y[i] = 7
	}
	r, err := KPSS(y, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.PValue < 0.0999 {
		t.Errorf("constant series should be trivially stationary, p=%g", r.PValue)
	}
}

// KolmogorovSmirnov is KolmogorovSmirnovSorted on unsorted samples, the
// entry the tests drive.
func KolmogorovSmirnov(x, y []float64) (KSResult, error) {
	return KolmogorovSmirnovSorted(sortedCopy(x), sortedCopy(y))
}

func sortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}
