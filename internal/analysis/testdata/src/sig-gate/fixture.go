// Package fixture exercises the sig-gate rule: raw coefficient calls must
// go through corrsim or carry the rawcorr opt-out.
package fixture

import (
	"homesight/internal/corrsim"
	"homesight/internal/stats/corr"
)

func direct(x, y []float64) float64 {
	r, _ := corr.Pearson(x, y)                // want `raw corr\.Pearson bypasses the Definition 1 significance gate`
	s, _ := corr.Spearman(x, y)               // want `raw corr\.Spearman bypasses`
	k, _ := corr.Kendall(x, y)                // want `raw corr\.Kendall bypasses`
	rho, tau, _ := corr.SpearmanKendall(x, y) // want `raw corr\.SpearmanKendall bypasses`
	return r.Coeff + s.Coeff + k.Coeff + rho.Coeff + tau.Coeff
}

func complete(x, y []float64) float64 {
	p, _, _, _ := corr.Complete(x, y) // want `raw corr\.Complete bypasses`
	var yr corr.Ranked
	yr.Rank(y)                   // ranking alone computes no coefficient: no finding
	q, _, _, _ := yr.Complete(x) // want `raw corr\.Complete bypasses`
	return p.Coeff + q.Coeff
}

func gated(x, y []float64) float64 {
	// Routed through Definition 1: no finding.
	return corrsim.Default.Detailed(x, y).Similarity + corrsim.Measure{}.Against(y).Similarity(x)
}

func optedOutInline(x, y []float64) float64 {
	r, _ := corr.Pearson(x, y) //homesight:rawcorr — the raw coefficient is the point here
	return r.Coeff
}

func optedOutAbove(x, y []float64) float64 {
	//homesight:rawcorr — the raw coefficient is the point here
	r, _ := corr.Spearman(x, y)
	return r.Coeff
}

// acf is fine: only the coefficient entry points are gated.
func acf(x []float64) []float64 {
	return corr.ACF(x, 4)
}
