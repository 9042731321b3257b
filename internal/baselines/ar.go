package baselines

import (
	"errors"
	"math"

	"homesight/internal/stats"
	"homesight/internal/stats/corr"
)

// ErrOrder is returned when the AR order is unusable for the sample.
var ErrOrder = errors.New("baselines: invalid AR order for sample size")

// ARModel is an autoregressive model of order p fitted by the Yule–Walker
// equations. It stands in for the paper's ARIMA discussion: on bursty,
// background-dominated traffic its forecasts collapse to the mean and miss
// the rare active bursts (Sec. 4.2a).
//
//homesight:ignore unreachable — (d) the ARIMA-style rival; TestARMissesBursts reproduces its burst-blindness (EXPERIMENTS.md, reproduction verdict)
type ARModel struct {
	// Coeffs are phi_1..phi_p.
	Coeffs []float64
	// Mean is the sample mean removed before fitting.
	Mean float64
	// Sigma2 is the innovation variance estimate.
	Sigma2 float64
}

// FitAR fits an AR(p) model by solving the Yule–Walker system with
// Levinson–Durbin recursion.
//
//homesight:ignore unreachable — (d) fits the ARModel rival for TestFitARRecoversCoefficient and TestARMissesBursts
func FitAR(xs []float64, p int) (*ARModel, error) {
	if p < 1 || len(xs) <= p+1 {
		return nil, ErrOrder
	}
	acf := corr.ACF(xs, p)
	variance := stats.PopVariance(xs)
	m := &ARModel{Mean: stats.Mean(xs)}
	if variance == 0 {
		// Constant series: AR coefficients are irrelevant; forecast = mean.
		m.Coeffs = make([]float64, p)
		return m, nil
	}

	// Levinson–Durbin on autocorrelations.
	phi := make([]float64, p+1)
	prev := make([]float64, p+1)
	e := 1.0 // normalized innovation variance
	for k := 1; k <= p; k++ {
		acc := acf[k]
		for j := 1; j < k; j++ {
			acc -= prev[j] * acf[k-j]
		}
		if e == 0 {
			break
		}
		reflection := acc / e
		phi[k] = reflection
		for j := 1; j < k; j++ {
			phi[j] = prev[j] - reflection*prev[k-j]
		}
		e *= 1 - reflection*reflection
		copy(prev, phi)
	}
	m.Coeffs = make([]float64, p)
	copy(m.Coeffs, phi[1:])
	m.Sigma2 = e * variance
	return m, nil
}

// Predict returns the one-step-ahead forecast given the most recent
// observations (latest last). It needs at least p observations.
func (m *ARModel) Predict(recent []float64) float64 {
	p := len(m.Coeffs)
	if len(recent) < p {
		return m.Mean
	}
	pred := 0.0
	for j := 0; j < p; j++ {
		pred += m.Coeffs[j] * (recent[len(recent)-1-j] - m.Mean)
	}
	return m.Mean + pred
}

// Backtest runs one-step-ahead forecasts over xs and returns the root mean
// squared error and the "burst miss rate": the share of observations above
// burstThreshold whose forecast stayed below it — the paper's argument that
// ARIMA-style models cannot anticipate rare active bursts.
func (m *ARModel) Backtest(xs []float64, burstThreshold float64) (rmse, burstMissRate float64) {
	p := len(m.Coeffs)
	if len(xs) <= p {
		return 0, 0
	}
	var se float64
	var bursts, missed int
	for t := p; t < len(xs); t++ {
		pred := m.Predict(xs[:t])
		d := xs[t] - pred
		se += d * d
		if xs[t] >= burstThreshold {
			bursts++
			if pred < burstThreshold {
				missed++
			}
		}
	}
	rmse = math.Sqrt(se / float64(len(xs)-p))
	if bursts > 0 {
		burstMissRate = float64(missed) / float64(bursts)
	}
	return rmse, burstMissRate
}
