package baselines

import (
	"math"
	"math/rand"
	"testing"
)

func TestEuclidean(t *testing.T) {
	d, err := Euclidean([]float64{0, 3}, []float64{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if d != 4 {
		t.Errorf("d = %g, want 4", d)
	}
	// A missing value counts as zero traffic, on either side.
	nan := math.NaN()
	d2, _ := Euclidean([]float64{1, nan, 3}, []float64{1, 99, 3})
	if d2 != 99 {
		t.Errorf("distance with a missing minute = %g, want 99", d2)
	}
	if d3, _ := Euclidean([]float64{1, 99, nan}, []float64{1, nan, nan}); d3 != 99 {
		t.Errorf("distance with missing minutes on both sides = %g, want 99", d3)
	}
	if _, err := Euclidean([]float64{1}, []float64{1, 2}); err != ErrLength {
		t.Errorf("want ErrLength, got %v", err)
	}
}

func TestEuclideanScaleSensitivity(t *testing.T) {
	// The paper's core argument: identical trends at different magnitudes
	// look far apart to Euclidean distance.
	x := []float64{1, 2, 3, 4, 5}
	scaled := []float64{10, 20, 30, 40, 50}
	same, _ := Euclidean(x, x)
	far, _ := Euclidean(x, scaled)
	if same != 0 || far < 10 {
		t.Errorf("Euclidean should punish scaling: same=%g far=%g", same, far)
	}
}

func TestDTW(t *testing.T) {
	x := []float64{0, 1, 2, 1, 0}
	if d := DTW(x, x, 0); d != 0 {
		t.Errorf("self-DTW = %g", d)
	}
	// DTW forgives time shifts — exactly why the paper rejects it.
	shifted := []float64{0, 0, 1, 2, 1}
	dtw := DTW(x, shifted, 0)
	eu, _ := Euclidean(x, shifted)
	if dtw >= eu {
		t.Errorf("DTW (%g) should be below Euclidean (%g) on shifted series", dtw, eu)
	}
	// Band restriction can only increase the distance.
	if banded := DTW(x, shifted, 1); banded < dtw-1e-12 {
		t.Errorf("banded DTW %g < unconstrained %g", banded, dtw)
	}
	// Degenerate inputs.
	if DTW(nil, nil, 0) != 0 {
		t.Error("empty-empty DTW should be 0")
	}
	if !math.IsInf(DTW(nil, x, 0), 1) {
		t.Error("empty-vs-nonempty DTW should be +Inf")
	}
}

func TestPAA(t *testing.T) {
	xs := []float64{1, 1, 5, 5}
	paa := PAA(xs, 2)
	if len(paa) != 2 || paa[0] != 1 || paa[1] != 5 {
		t.Errorf("paa = %v", paa)
	}
	// More segments than points degrades gracefully.
	if got := PAA(xs, 10); len(got) != 4 {
		t.Errorf("oversegmented paa = %v", got)
	}
	if PAA(nil, 3) != nil || PAA(xs, 0) != nil {
		t.Error("degenerate PAA should be nil")
	}
}

func TestGaussianBreakpoints(t *testing.T) {
	b := GaussianBreakpoints(4)
	if len(b) != 3 {
		t.Fatalf("breakpoints = %v", b)
	}
	// Known: quartile breakpoints of N(0,1) at ±0.6745 and 0.
	if math.Abs(b[0]+0.6744898) > 1e-4 || math.Abs(b[1]) > 1e-10 || math.Abs(b[2]-0.6744898) > 1e-4 {
		t.Errorf("breakpoints = %v", b)
	}
}

func TestSAXOnGaussianDataIsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	// Segment length 1 so PAA does not shrink the variance: on Gaussian
	// data the equiprobable breakpoints then yield balanced symbol use.
	word, err := SAX(xs, len(xs), 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := SymbolHistogram(word, 4)
	for s, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("symbol %c count = %d, want roughly balanced (~1000)", 'a'+s, c)
		}
	}
}

func TestSAXOnZipfianDataIsDegenerate(t *testing.T) {
	// The paper's critique, reproduced: on heavy-tailed traffic the SAX
	// symbols collapse onto the low region even after z-normalization.
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 4000)
	for i := range xs {
		if rng.Float64() < 0.03 {
			xs[i] = 1e6 * rng.ExpFloat64() // rare bursts
		} else {
			xs[i] = 500 * rng.Float64() // background
		}
	}
	word, err := SAX(xs, 400, 6)
	if err != nil {
		t.Fatal(err)
	}
	counts := SymbolHistogram(word, 6)
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if frac := float64(maxCount) / 400; frac < 0.5 {
		t.Errorf("dominant symbol share = %.2f, want > 0.5 (degenerate coding)", frac)
	}
}

func TestSAXErrors(t *testing.T) {
	if _, err := SAX([]float64{1, 2}, 2, 1); err != ErrAlphabet {
		t.Errorf("want ErrAlphabet, got %v", err)
	}
	if _, err := SAX([]float64{1, 2}, 2, 27); err != ErrAlphabet {
		t.Errorf("want ErrAlphabet, got %v", err)
	}
}

func TestSAXMotifsGroupIdenticalShapes(t *testing.T) {
	up := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	down := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	groups, err := SAXMotifs([][]float64{up, down, up, down, up}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, idx := range groups {
		sizes = append(sizes, len(idx))
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d (%v), want 2", len(groups), groups)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 5 {
		t.Errorf("grouped %d windows, want 5", total)
	}
}

func TestFitARRecoversCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = 0.7*xs[i-1] + rng.NormFloat64()
	}
	m, err := FitAR(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coeffs[0]-0.7) > 0.05 {
		t.Errorf("phi = %g, want ~0.7", m.Coeffs[0])
	}
	if m.Sigma2 < 0.8 || m.Sigma2 > 1.2 {
		t.Errorf("sigma2 = %g, want ~1", m.Sigma2)
	}
}

func TestARPredictsMeanForConstant(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	m, err := FitAR(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(xs); got != 5 {
		t.Errorf("constant prediction = %g", got)
	}
}

func TestARMissesBursts(t *testing.T) {
	// Background plus rare huge bursts: the AR forecaster must miss nearly
	// all bursts — the quantitative form of the paper's ARIMA remark.
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 5000)
	for i := range xs {
		if rng.Float64() < 0.01 {
			xs[i] = 1e6
		} else {
			xs[i] = 1000 * rng.Float64()
		}
	}
	m, err := FitAR(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, missRate := m.Backtest(xs, 1e5)
	if missRate < 0.9 {
		t.Errorf("burst miss rate = %.2f, want ~1 (AR cannot anticipate bursts)", missRate)
	}
}

func TestFitARErrors(t *testing.T) {
	if _, err := FitAR([]float64{1, 2}, 3); err != ErrOrder {
		t.Errorf("want ErrOrder, got %v", err)
	}
	if _, err := FitAR([]float64{1, 2, 3}, 0); err != ErrOrder {
		t.Errorf("want ErrOrder, got %v", err)
	}
}

func TestSAXWordLength(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	word, err := SAX(xs, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(word) != 10 {
		t.Errorf("word %q length %d, want 10", word, len(word))
	}
	// Monotone input → non-decreasing symbols.
	if sorted := sortString(word); sorted != word {
		t.Errorf("monotone series should give sorted word, got %q", word)
	}
}

func sortString(s string) string {
	b := []byte(s)
	for i := range b {
		for j := i + 1; j < len(b); j++ {
			if b[j] < b[i] {
				b[i], b[j] = b[j], b[i]
			}
		}
	}
	return string(b)
}

func TestSymbolHistogramIgnoresJunk(t *testing.T) {
	counts := SymbolHistogram("ab!z", 2)
	if counts[0] != 1 || counts[1] != 1 {
		t.Errorf("counts = %v", counts)
	}
}
