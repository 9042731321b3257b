package tests

import (
	"errors"
	"math"
	"sync"

	"homesight/internal/stats"
)

// ErrSingular is returned by ADF when the unit-root regression has no
// unique solution: a regressor has no variation over the sample or is a
// linear combination of the others. A constant series is the common
// case; callers in the traffic pipeline treat it as trivially
// stationary.
var ErrSingular = errors.New("tests: singular unit-root regression")

// urScratch is the pooled per-call buffer of ADF/KPSS, so the unit-root
// sweeps over every gateway series stop re-allocating a series-length
// slice per test.
type urScratch struct {
	buf []float64
}

var urPool = sync.Pool{New: func() any { return new(urScratch) }}

// grow returns sc.buf resized to n, reusing its capacity.
func (sc *urScratch) grow(n int) []float64 {
	if cap(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	return sc.buf[:n]
}

// UnitRootResult is the outcome of a unit-root / stationarity test.
type UnitRootResult struct {
	// Stat is the test statistic (τ for ADF, η for KPSS).
	Stat float64
	// PValue is an interpolated p-value. It is clamped to the table range
	// ([0.01, 0.10] endpoints map to <=0.01 / >=0.10) — standard practice
	// for table-based unit-root tests.
	PValue float64
	// Lags is the number of lag terms used.
	Lags int
	// N is the effective sample size.
	N int
}

// adfCrit holds MacKinnon (2010) response-surface critical values for the
// constant, no-trend ADF regression: crit = b0 + b1/T + b2/T².
var adfCrit = []struct {
	level      float64
	b0, b1, b2 float64
}{
	{0.01, -3.43035, -6.5393, -16.786},
	{0.05, -2.86154, -2.8903, -4.234},
	{0.10, -2.56677, -1.5384, -2.809},
}

// ADF performs the Augmented Dickey–Fuller test with a constant (no trend):
//
//	Δy_t = α + γ·y_{t-1} + Σ_{i=1..lags} δ_i·Δy_{t-i} + ε_t
//
// H0: γ = 0 (unit root, non-stationary); small p-values reject the unit
// root, i.e. support stationarity. If lags < 0, the Schwert rule
// floor(12·(T/100)^0.25) is used. A regression without a unique
// solution (constant series, collinear lags) returns ErrSingular.
func ADF(y []float64, lags int) (UnitRootResult, error) {
	t := len(y)
	if lags < 0 {
		lags = int(math.Floor(12 * math.Pow(float64(t)/100, 0.25)))
	}
	// The regression has 2+lags coefficients; it needs more rows than
	// that, with slack.
	rows := t - 1 - lags
	if t < lags+12 || rows <= lags+2 {
		return UnitRootResult{}, ErrTooShort
	}
	sc := urPool.Get().(*urScratch)
	defer urPool.Put(sc)
	tau, err := adfTau(sc, y, lags)
	if err != nil {
		return UnitRootResult{}, err
	}
	return UnitRootResult{
		Stat:   tau,
		PValue: adfPValue(tau, rows),
		Lags:   lags,
		N:      rows,
	}, nil
}

// Refusal thresholds of adfTau. A column is the intercept over again
// when centring leaves less than adfConstTol of its norm (the rank
// tolerance of the QR fit this solver replaced). After that the Gram
// matrix has a unit diagonal, so a Cholesky pivot is 1 − R² of that
// column on the ones before it; the O(n) sums behind it carry rounding
// error near n·ε ≈ 10⁻¹², so below adfPivotTol the pivot — and a τ
// computed through it — is mostly noise.
const (
	adfConstTol = 1e-12
	adfPivotTol = 1e-10
)

// adfTau returns the t-statistic of γ̂ in the ADF regression, solved
// from the normal equations in O(n·lags) instead of factorizing the
// n×(2+lags) design: the response and every lag column are one vector,
// Δy, read at lags+1 shifts, so their cross-products are lags+1 dot
// products over the rows all shifts share plus O(lags²) edge terms, and
// the level column adds lags+2 more dot products.
//
// Normal equations square the design's condition number, so the
// columns are conditioned first. The intercept is eliminated by
// centring (with a constant in the model, the other coefficients and
// the residuals are those of the regression on centred columns). The
// level y_{t-1} is centred by its mean *before* any product is formed:
// on a series that idles far from zero (mean²/variance ≈ 10⁸, say)
// Σy² − n·ȳ² would lose those eight digits, τ with them; centred first
// it keeps ten. Δy is shifted by its mean over the rows every shift
// shares, so each window's own mean is off by edge terms only and
// removing it afterwards costs at most a bit. Then the Gram matrix is
// scaled to a unit diagonal and Cholesky-factorized with the response
// as its last column, which leaves the whole answer in its last row:
// the entry under the level column is γ̂/se(γ̂) up to the residual
// scale, and the final pivot is RSS/S_yy.
func adfTau(sc *urScratch, y []float64, lags int) (float64, error) {
	nd := len(y) - 1  // differences
	rows := nd - lags // regression rows
	q := lags + 2     // Gram columns: lags 1..lags, level, response
	level, resp := lags, lags+1
	buf := sc.grow(nd + rows + q*q + 2*q)
	d, buf := buf[:nd], buf[nd:]
	lvl, buf := buf[:rows], buf[rows:]
	g, buf := buf[:q*q], buf[q*q:]
	sum, raw := buf[:q], buf[q:] // per column: Σ shifted values, Σ unshifted values²

	// col maps a shift of Δy (0 = the response, j = lag j) to its Gram
	// column; at addresses the lower triangle.
	col := func(shift int) int {
		if shift == 0 {
			return resp
		}
		return shift - 1
	}
	at := func(a, b int) int {
		if a < b {
			a, b = b, a
		}
		return a*q + b
	}

	// Row i of the design reads Δy at i+lags-shift and the level at
	// y[i+lags]; Δy[lags : nd-lags] is in every shift's window.
	dmean := (y[nd-lags] - y[lags]) / float64(rows-lags)
	for i := range d {
		d[i] = y[i+1] - y[i] - dmean
	}
	ywin := y[lags : lags+rows]
	ymean := stats.Mean(ywin)
	sum[level] = 0
	for i, v := range ywin {
		lvl[i] = v - ymean
		sum[level] += lvl[i]
	}
	s := 0.0
	for _, v := range d[lags:] {
		s += v
	}
	sum[resp] = s
	for j := 1; j <= lags; j++ {
		s += d[lags-j] - d[nd-j] // the window moves back one step
		sum[col(j)] = s
	}

	// Lag block, one diagonal (h = difference of shifts) at a time:
	// shifts j and j+h multiply Δy[u]·Δy[u-h] over u in
	// [lags-j, nd-1-j]. The range [lags, nd-1-lags+h] is common to every
	// j; the rest is a tail that grows as j falls and a head that grows
	// as j rises. Only additions: a traffic spike near either end of
	// the series never has to be subtracted back out.
	for h := 0; h <= lags; h++ {
		core := dot(d[lags:nd-lags+h], d[lags-h:nd-lags])
		edge := 0.0
		for j := lags - h; j >= 0; j-- {
			g[at(col(j), col(j+h))] = core + edge
			if j > 0 {
				edge += d[nd-j] * d[nd-j-h]
			}
		}
		edge = 0
		for j := 1; j <= lags-h; j++ {
			edge += d[lags-j] * d[lags-j-h]
			g[at(col(j), col(j+h))] += edge
		}
	}
	for j := 0; j <= lags; j++ {
		g[at(level, col(j))] = dot(lvl, d[lags-j:nd-j])
	}
	g[at(level, level)] = dot(lvl, lvl)

	// Remove the window means, refuse columns that were constant, and
	// scale to a unit diagonal.
	n := float64(rows)
	for a := 0; a < q; a++ {
		raw[a] = g[a*q+a] + dmean*(2*sum[a]+n*dmean) // Σ(d+dmean)²
	}
	raw[level] = dot(ywin, ywin)
	for a := 0; a < q; a++ {
		for b := 0; b <= a; b++ {
			g[a*q+b] -= sum[a] * sum[b] / n
		}
	}
	for a := 0; a < q; a++ {
		if !(g[a*q+a] > adfConstTol*adfConstTol*raw[a]) { // also refuses NaN
			return 0, ErrSingular
		}
		sum[a] = 1 / math.Sqrt(g[a*q+a])
	}
	for a := 0; a < q; a++ {
		for b := 0; b <= a; b++ {
			g[a*q+b] *= sum[a] * sum[b]
		}
	}

	// In-place Cholesky of the lower triangle.
	for a := 0; a < q; a++ {
		for b := 0; b <= a; b++ {
			v := g[a*q+b] - dot(g[a*q:a*q+b], g[b*q:b*q+b])
			switch {
			case b < a:
				g[a*q+b] = v / g[b*q+b]
			case a == resp:
				// A perfect fit is not a singular design: τ is ±Inf.
				g[a*q+a] = math.Sqrt(math.Max(v, 0))
			case !(v > adfPivotTol):
				return 0, ErrSingular
			default:
				g[a*q+a] = math.Sqrt(v)
			}
		}
	}
	sigma := g[resp*q+resp] / math.Sqrt(float64(rows-q))
	return g[resp*q+level] / sigma, nil
}

// dot returns Σ a[i]·b[i] over len(a) elements.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// adfPValue interpolates the p-value from the MacKinnon critical values,
// clamping outside the tabulated [0.01, 0.10] range.
func adfPValue(tau float64, t int) float64 {
	tf := float64(t)
	crits := make([]float64, len(adfCrit))
	for i, c := range adfCrit {
		crits[i] = c.b0 + c.b1/tf + c.b2/(tf*tf)
	}
	// crits are ascending in value (1% most negative) and level ascending.
	switch {
	case tau <= crits[0]:
		return 0.01
	case tau >= crits[len(crits)-1]:
		return 0.10
	}
	for i := 0; i+1 < len(crits); i++ {
		if tau >= crits[i] && tau <= crits[i+1] {
			frac := (tau - crits[i]) / (crits[i+1] - crits[i])
			return adfCrit[i].level + frac*(adfCrit[i+1].level-adfCrit[i].level)
		}
	}
	return 0.10
}

// kpssCrit holds the Kwiatkowski et al. (1992) critical values for the
// level-stationarity statistic.
var kpssCrit = []struct{ level, crit float64 }{
	{0.10, 0.347},
	{0.05, 0.463},
	{0.025, 0.574},
	{0.01, 0.739},
}

// KPSS performs the KPSS test of H0: the series is level-stationary.
// Small p-values reject stationarity — note the opposite orientation from
// ADF. If lags < 0 the standard bandwidth floor(4·(T/100)^0.25) is used.
func KPSS(y []float64, lags int) (UnitRootResult, error) {
	t := len(y)
	if t < 12 {
		return UnitRootResult{}, ErrTooShort
	}
	if lags < 0 {
		lags = int(math.Floor(4 * math.Pow(float64(t)/100, 0.25)))
	}

	// Residuals from the level: e_t = y_t - mean.
	sc := urPool.Get().(*urScratch)
	defer urPool.Put(sc)
	mean := stats.Mean(y)
	e := sc.grow(t)
	for i, v := range y {
		e[i] = v - mean
	}

	// Partial sums S_t and numerator (1/T²) Σ S_t².
	num := 0.0
	s := 0.0
	for _, v := range e {
		s += v
		num += s * s
	}
	num /= float64(t) * float64(t)

	// Long-run variance with Bartlett kernel.
	lrv := 0.0
	for _, v := range e {
		lrv += v * v
	}
	lrv /= float64(t)
	for l := 1; l <= lags; l++ {
		gamma := 0.0
		for i := l; i < t; i++ {
			gamma += e[i] * e[i-l]
		}
		gamma /= float64(t)
		w := 1 - float64(l)/float64(lags+1)
		lrv += 2 * w * gamma
	}
	if lrv <= 0 {
		// Degenerate (e.g. constant) series: trivially stationary.
		return UnitRootResult{Stat: 0, PValue: 0.10, Lags: lags, N: t}, nil
	}

	eta := num / lrv
	return UnitRootResult{Stat: eta, PValue: kpssPValue(eta), Lags: lags, N: t}, nil
}

// kpssPValue interpolates the KPSS table; larger statistics mean smaller
// p-values. Clamped to [0.01, 0.10].
func kpssPValue(eta float64) float64 {
	switch {
	case eta <= kpssCrit[0].crit:
		return 0.10
	case eta >= kpssCrit[len(kpssCrit)-1].crit:
		return 0.01
	}
	for i := 0; i+1 < len(kpssCrit); i++ {
		lo, hi := kpssCrit[i], kpssCrit[i+1]
		if eta >= lo.crit && eta <= hi.crit {
			frac := (eta - lo.crit) / (hi.crit - lo.crit)
			return lo.level + frac*(hi.level-lo.level)
		}
	}
	return 0.01
}
