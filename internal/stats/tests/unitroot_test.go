package tests

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// oracleFit is what the dense reference reports about one least-squares
// fit: the coefficients and their standard errors, plus the two figures
// that say how far a normal-equations solver can be held to it.
type oracleFit struct {
	coef, se []float64
	sigma2   float64
	// det is the determinant of the predictors' correlation matrix
	// (intercept excluded): the product of the squared QR pivots, each
	// relative to its centred column norm. Every Cholesky pivot of that
	// matrix, in any column order, is at least det.
	det float64
	// unexplained is RSS / S_yy.
	unexplained float64
}

// oracleOLS is the dense Householder-QR least-squares fit tests.ADF ran
// on its explicit n×p design (row-major x, intercept in column 0) until
// the normal-equations solver replaced it. It survives as the reference
// that solver is held to: a different algorithm on the undisguised
// design. Its rank refusal is the production one it replaces (a pivot
// below 1e-12 of its column's norm).
func oracleOLS(x []float64, n, p int, y []float64) (oracleFit, error) {
	norm := func(v []float64) float64 {
		s := 0.0
		for _, e := range v {
			s += e * e
		}
		return math.Sqrt(s)
	}
	qr := make([]float64, n*p) // column-major working copy
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			qr[j*n+i] = x[i*p+j]
		}
	}
	b := append([]float64(nil), y...)
	rdiag, raw, centred := make([]float64, p), make([]float64, p), make([]float64, p)
	for j := range raw {
		if raw[j] = norm(qr[j*n : j*n+n]); raw[j] == 0 {
			return oracleFit{}, ErrSingular
		}
	}
	fit := oracleFit{det: 1}
	syy := 0.0
	for k := 0; k < p; k++ {
		ck := qr[k*n : k*n+n]
		if k == 1 {
			// The intercept has just been reflected out: what is left
			// below row 0 is every column, and the response, centred.
			for j := 1; j < p; j++ {
				centred[j] = norm(qr[j*n+1 : j*n+n])
			}
			syy = norm(b[1:])
			syy *= syy
		}
		nrm := norm(ck[k:])
		if nrm <= 1e-12*raw[k] {
			return oracleFit{}, ErrSingular
		}
		if k > 0 {
			fit.det *= (nrm / centred[k]) * (nrm / centred[k])
		}
		if ck[k] < 0 {
			nrm = -nrm
		}
		for i := k; i < n; i++ {
			ck[i] /= nrm
		}
		ck[k]++
		reflect := func(v []float64) {
			s := 0.0
			for i := k; i < n; i++ {
				s += ck[i] * v[i]
			}
			s = -s / ck[k]
			for i := k; i < n; i++ {
				v[i] += s * ck[i]
			}
		}
		for j := k + 1; j < p; j++ {
			reflect(qr[j*n : j*n+n])
		}
		reflect(b)
		rdiag[k] = -nrm
	}
	r := func(i, j int) float64 { // upper-triangular R
		if i == j {
			return rdiag[i]
		}
		return qr[j*n+i]
	}
	fit.coef = make([]float64, p)
	for k := p - 1; k >= 0; k-- {
		s := b[k]
		for j := k + 1; j < p; j++ {
			s -= r(k, j) * fit.coef[j]
		}
		fit.coef[k] = s / rdiag[k]
	}
	rss := norm(b[p:])
	rss *= rss
	fit.sigma2 = rss / float64(n-p)
	fit.unexplained = rss / syy
	// se² = σ²·diag((X'X)⁻¹), and (X'X)⁻¹ = R⁻¹R⁻ᵀ.
	inv := make([]float64, p*p)
	for j := p - 1; j >= 0; j-- {
		inv[j*p+j] = 1 / rdiag[j]
		for i := j - 1; i >= 0; i-- {
			s := 0.0
			for k := i + 1; k <= j; k++ {
				s += r(i, k) * inv[k*p+j]
			}
			inv[i*p+j] = -s / rdiag[i]
		}
	}
	fit.se = make([]float64, p)
	for j := range fit.se {
		fit.se[j] = math.Sqrt(fit.sigma2) * norm(inv[j*p+j:j*p+p])
	}
	return fit, nil
}

// oracleADF is ADF as it was: the explicit lagged design, fitted dense.
func oracleADF(y []float64, lags int) (UnitRootResult, oracleFit, error) {
	t := len(y)
	if lags < 0 {
		lags = int(math.Floor(12 * math.Pow(float64(t)/100, 0.25)))
	}
	rows, p := t-1-lags, 2+lags
	if t < lags+12 || rows <= p {
		return UnitRootResult{}, oracleFit{}, ErrTooShort
	}
	dy := make([]float64, t-1)
	for i := range dy {
		dy[i] = y[i+1] - y[i]
	}
	design, resp := make([]float64, rows*p), make([]float64, rows)
	for i := range resp {
		row := design[i*p : (i+1)*p]
		row[0] = 1
		row[1] = y[i+lags]
		for k := 1; k <= lags; k++ {
			row[1+k] = dy[i+lags-k]
		}
		resp[i] = dy[i+lags]
	}
	fit, err := oracleOLS(design, rows, p, resp)
	if err != nil {
		return UnitRootResult{}, oracleFit{}, err
	}
	tau := fit.coef[1] / fit.se[1]
	return UnitRootResult{Stat: tau, PValue: adfPValue(tau, rows), Lags: lags, N: rows}, fit, nil
}

// TestOracleOLSKnownSmallSystem checks the reference itself against a
// regression small enough to solve by hand.
func TestOracleOLSKnownSmallSystem(t *testing.T) {
	// x = 0..4, y = (1, 2, 2, 4, 6): slope = sxy/sxx = 12/10,
	// intercept = 3 - 1.2·2, residuals .4, .2, -1, -.2, .6 → RSS 1.6.
	x := []float64{1, 0, 1, 1, 1, 2, 1, 3, 1, 4}
	fit, err := oracleOLS(x, 5, 2, []float64{1, 2, 2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"intercept", fit.coef[0], 0.6},
		{"slope", fit.coef[1], 1.2},
		{"sigma2", fit.sigma2, 1.6 / 3},
		{"se slope", fit.se[1], math.Sqrt(1.6 / 3 / 10)},
		{"se intercept", fit.se[0], math.Sqrt(1.6 / 3 * (0.2 + 0.4))},
		{"unexplained", fit.unexplained, 1.6 / 16},
	} {
		if math.Abs(c.got-c.want) > 1e-10 {
			t.Errorf("%s = %.12g, want %.12g", c.name, c.got, c.want)
		}
	}
}

// TestOracleOLSMatchesPreOptimizationGoldens holds the reference to the
// numbers the production QR was itself pinned to (recorded from the
// row-major math.Hypot fit it once replaced): the oracle is that
// lineage, not a new implementation that merely agrees with the solver.
func TestOracleOLSMatchesPreOptimizationGoldens(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const n, p = 400, 5
	truth := []float64{0.7, 1.3, -0.45, 0.08, -2.2}
	x, y := make([]float64, n*p), make([]float64, n)
	for i := range y {
		row := x[i*p : (i+1)*p]
		row[0] = 1
		for j := 1; j < p; j++ {
			row[j] = rng.NormFloat64() * float64(j)
		}
		for j, c := range truth {
			y[i] += c * row[j]
		}
		y[i] += 0.5 * rng.NormFloat64()
	}
	golden := [p][2]float64{ // {coefficient, stderr}
		{0.65249826858440929, 0.025558372116007599},
		{1.2858506178947133, 0.02541397184497577},
		{-0.46455264362917098, 0.01289205026987583},
		{0.090399766833779011, 0.0086730669974340192},
		{-2.1942205453320405, 0.0062734366253343948},
	}
	fit, err := oracleOLS(x, n, p, y)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-12
	for j, want := range golden {
		if math.Abs(fit.coef[j]-want[0]) > tol || math.Abs(fit.se[j]-want[1]) > tol {
			t.Errorf("column %d: %.17g ± %.17g, golden %.17g ± %.17g", j, fit.coef[j], fit.se[j], want[0], want[1])
		}
	}
	if want := 0.26078343230261553; math.Abs(fit.sigma2-want) > tol {
		t.Errorf("sigma2 = %.17g, golden %.17g", fit.sigma2, want)
	}
	if want := 1 - 0.99682122643687987; math.Abs(fit.unexplained-want) > tol {
		t.Errorf("1-R² = %.17g, golden %.17g", fit.unexplained, want)
	}
}

func TestOracleOLSSingular(t *testing.T) {
	// Second column is exactly twice the first.
	x := []float64{1, 2, 2, 4, 3, 6, 4, 8}
	if _, err := oracleOLS(x, 4, 2, []float64{1, 2, 3, 4}); err != ErrSingular {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

// adfSeries draws the three shapes the solver has to get right: traffic
// (half the minutes idle, the rest heavy-tailed), a random walk (the
// null hypothesis), and a tight AR(1) far from zero, where the level
// column's mean²/variance is 10⁸.
func adfSeries(rng *rand.Rand, kind, n int) []float64 {
	y := make([]float64, n)
	switch kind {
	case 0:
		for i := range y {
			if rng.Intn(2) == 1 {
				y[i] = 800 * math.Pow(1-rng.Float64(), -1/1.3)
			}
		}
	case 1:
		for i := 1; i < n; i++ {
			y[i] = y[i-1] + rng.NormFloat64()
		}
	default:
		dev := 0.0
		for i := range y {
			dev = 0.8*dev + 100*rng.NormFloat64()
			y[i] = 1e6 + dev
		}
	}
	return y
}

// TestADFMatchesOracle is the solver's acceptance test: on seeded series
// of every shape and length the suite meets, at no lags, one lag and
// the Schwert default, τ agrees with the dense QR fit to 10⁻⁹ relative
// and everything derived from it is identical.
func TestADFMatchesOracle(t *testing.T) {
	lengths := []int{60, 97, 150, 400, 1000, 2500, 6000}
	worst := 0.0
	for seed := 0; seed < 210; seed++ {
		n := lengths[seed%len(lengths)]
		switch {
		case seed%70 == 69:
			n = 40320 // four weeks of minutes
		case seed%30 == 29:
			n = 20160
		}
		if testing.Short() && n > 6000 {
			continue
		}
		y := adfSeries(rand.New(rand.NewSource(int64(seed))), seed%3, n)
		for _, lags := range []int{0, 1, -1} {
			got, err := ADF(y, lags)
			want, _, werr := oracleADF(y, lags)
			if err != nil || werr != nil {
				t.Fatalf("seed %d n %d lags %d: ADF err %v, oracle err %v", seed, n, lags, err, werr)
			}
			rel := math.Abs(got.Stat-want.Stat) / math.Abs(want.Stat)
			worst = math.Max(worst, rel)
			if !(rel <= 1e-9) {
				t.Errorf("seed %d n %d lags %d: τ = %.17g, oracle %.17g (rel %.3g)", seed, n, lags, got.Stat, want.Stat, rel)
			}
			if got.Lags != want.Lags || got.N != want.N {
				t.Errorf("seed %d n %d lags %d: lags/N = %d/%d, oracle %d/%d", seed, n, lags, got.Lags, got.N, want.Lags, want.N)
			}
			if math.Abs(got.PValue-want.PValue) > 1e-9 {
				t.Errorf("seed %d n %d lags %d: p = %g, oracle %g", seed, n, lags, got.PValue, want.PValue)
			}
		}
	}
	t.Logf("worst relative τ difference: %.3g", worst)
}

func TestADFRefusals(t *testing.T) {
	constant := make([]float64, 200)
	for i := range constant {
		constant[i] = 7
	}
	// Moves only inside the first lags steps: every Δy the regression
	// has to explain is zero (and the level it would explain them with
	// is constant).
	settled := make([]float64, 200)
	for i := range settled {
		settled[i] = math.Min(float64(i), 3)
	}
	// Δy alternates +1, -1, so lag 3 repeats lag 1: collinear columns.
	sawtooth := make([]float64, 201)
	for i := range sawtooth {
		sawtooth[i] = float64(i % 2)
	}
	withNaN := adfSeries(rand.New(rand.NewSource(1)), 1, 300)
	withNaN[150] = math.NaN()
	for _, c := range []struct {
		name string
		y    []float64
		lags int
		want error
	}{
		{"constant", constant, -1, ErrSingular},
		{"constant, no lags", constant, 0, ErrSingular},
		{"all-zero differences in the window", settled, 3, ErrSingular},
		{"duplicated lag", sawtooth, 3, ErrSingular},
		{"NaN", withNaN, -1, ErrSingular},
		{"shorter than lags+12", make([]float64, 14), 3, ErrTooShort},
		{"fewer rows than coefficients", adfSeries(rand.New(rand.NewSource(2)), 1, 62), 30, ErrTooShort},
	} {
		if _, err := ADF(c.y, c.lags); err != c.want {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if _, _, err := oracleADF(c.y, c.lags); c.name != "NaN" && err != c.want {
			t.Errorf("%s: oracle err = %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzADF holds the solver to the dense oracle on arbitrary series: the
// same refusals, and the same τ wherever the normal equations can
// deliver one — the predictors' correlation matrix is not nearly
// singular and the fit is not nearly perfect (both square into the
// solver's rounding error; the oracle reports each).
func FuzzADF(f *testing.F) {
	seed := func(y []float64, lags int8) {
		b := make([]byte, 0, 2*len(y))
		for _, v := range y {
			b = binary.LittleEndian.AppendUint16(b, uint16(int16(v)))
		}
		f.Add(b, lags)
	}
	seed(adfSeries(rand.New(rand.NewSource(3)), 1, 120), -1)
	seed(adfSeries(rand.New(rand.NewSource(4)), 0, 90), 2)
	seed(make([]float64, 40), 1)
	f.Fuzz(func(t *testing.T, raw []byte, lags int8) {
		y := make([]float64, len(raw)/2)
		for i := range y {
			y[i] = float64(int16(binary.LittleEndian.Uint16(raw[2*i:])))
		}
		got, err := ADF(y, int(lags))
		want, fit, werr := oracleADF(y, int(lags))
		switch {
		case werr != nil:
			if !errors.Is(err, werr) {
				t.Fatalf("ADF err = %v, oracle err = %v", err, werr)
			}
		case errors.Is(err, ErrSingular):
			if fit.det > 1e-8 {
				t.Fatalf("ADF refused a design the oracle solves with det %g", fit.det)
			}
		case err != nil:
			t.Fatalf("ADF err = %v, oracle has τ = %g", err, want.Stat)
		case fit.det >= 1e-6 && fit.unexplained >= 1e-6:
			if got.Lags != want.Lags || got.N != want.N {
				t.Fatalf("lags/N = %d/%d, oracle %d/%d", got.Lags, got.N, want.Lags, want.N)
			}
			// ADF Cholesky-factors the unit-diagonal Gram matrix, the oracle
			// runs QR on the design. Forming the Gram matrix squares the
			// design's conditioning, so the solve loses about ε·κ relative,
			// and for a correlation matrix κ ≈ 1/det: its eigenvalues sum
			// to the column count, so the smallest is of the order of det.
			// The final pivot is RSS/S_yy = 1 − R², left over after the
			// explained share is taken off a unit diagonal: a cancellation
			// that loses another factor 1/(1 − R²). QR pays neither, so τ
			// may differ from the oracle by ε/(det·(1 − R²)) relative,
			// with 1e-6 as the floor for well-conditioned fits.
			tol := math.Max(1e-6, 0x1p-52/(fit.det*fit.unexplained))
			if d := math.Abs(got.Stat - want.Stat); !(d <= tol*math.Max(1, math.Abs(want.Stat))) {
				t.Fatalf("τ = %.17g, oracle %.17g (det %g, 1-R² %g, tolerance %g)",
					got.Stat, want.Stat, fit.det, fit.unexplained, tol)
			}
		}
	})
}

// TestKSSortedMatchesPairwise pins the sort-once path of
// Env.Stationarity: four weeks sorted once each give exactly the six
// results of the pairwise calls that sort per call.
func TestKSSortedMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	weeks := make([][]float64, 4)
	sorted := make([][]float64, 4)
	for w := range weeks {
		weeks[w] = adfSeries(rng, 0, 2000+w) // ties at zero, unequal sizes
		sorted[w] = sortedCopy(weeks[w])
	}
	for i := range weeks {
		for j := i + 1; j < len(weeks); j++ {
			want, err1 := KolmogorovSmirnov(weeks[i], weeks[j])
			got, err2 := KolmogorovSmirnovSorted(sorted[i], sorted[j])
			if err1 != nil || err2 != nil || got != want {
				t.Errorf("weeks %d,%d: sorted %+v (%v), pairwise %+v (%v)", i, j, got, err2, want, err1)
			}
		}
	}
}
