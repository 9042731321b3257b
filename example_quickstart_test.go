package homesight

import (
	"fmt"
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/stationarity"
	"homesight/internal/synth"
)

// Example_quickstart tours the analysis framework on a small synthetic
// deployment: the five definitions of the paper in one function.
func Example_quickstart() {
	// A deterministic 12-home, 4-week deployment.
	dep := synth.NewDeployment(synth.Config{Homes: 12, Weeks: 4})

	// ── Definition 1: correlation similarity ────────────────────────────
	h0, h1 := dep.Home(0), dep.Home(1)
	a, _ := h0.Overall().FillMissing(0).Aggregate(3 * time.Hour)
	b, _ := h1.Overall().FillMissing(0).Aggregate(3 * time.Hour)
	fmt.Printf("Def 1  cor(%s, %s) at 3h bins: %.3f\n", h0.ID, h1.ID, corrsim.Default.Detailed(a.Values, b.Values).Similarity)

	// ── Sec 6.1: background removal ─────────────────────────────────────
	dt := h0.Traffic()[0]
	tau := background.EstimateThreshold(dt.In, dt.Out).Tau()
	fmt.Printf("Sec6.1 device %q: τ=%.0f B/min, %.1f%% of observed minutes are active\n",
		dt.Spec.Device.Name, tau, 100*background.ActiveFraction(dt.Overall(), tau))

	// ── Definition 4: dominant devices ──────────────────────────────────
	var devs []dominance.DeviceSeries
	for _, d := range h0.Traffic() {
		devs = append(devs, dominance.DeviceSeries{Device: d.Spec.Device, Series: d.Overall()})
	}
	dom := dominance.Default.Detect(h0.Overall(), devs)
	fmt.Printf("Def 4  %s has %d dominant device(s):\n", h0.ID, len(dom.Dominants))
	for rank, sc := range dom.Dominants {
		fmt.Printf("       #%d %-22s %-10s cor=%.2f\n",
			rank+1, sc.Device.Name, sc.Device.Inferred, sc.Similarity)
	}

	// ── Definition 2: strong stationarity ───────────────────────────────
	wins, err := aggregate.BestWeekly.Windows(h0.Overall().FillMissing(0))
	if err != nil {
		panic(err)
	}
	var windows [][]float64
	for _, w := range wins {
		windows = append(windows, w.Values)
	}
	st := stationarity.Default.Check(windows)
	fmt.Printf("Def 2  %s weekly (8h@2am): stationary=%v, min pairwise cor=%.2f\n",
		h0.ID, st.Stationary, st.MinSimilarity)

	// ── Definition 5: daily motifs (3h bins) across all homes ───────────
	motifs := mine(dep, false)
	fmt.Printf("Def 5  %d daily motifs across %d homes; top supports:", len(motifs), dep.NumHomes())
	for i, m := range motifs {
		if i == 5 {
			break
		}
		fmt.Printf(" %d", m.Support())
	}
	fmt.Println()
	// Output:
	// Def 1  cor(gw000, gw001) at 3h bins: 0.000
	// Sec6.1 device "Hugo-Desktop": τ=1734 B/min, 14.1% of observed minutes are active
	// Def 4  gw000 has 1 dominant device(s):
	//        #1 host-35c3              unlabeled  cor=0.85
	// Def 2  gw000 weekly (8h@2am): stationary=false, min pairwise cor=0.00
	// Def 5  35 daily motifs across 12 homes; top supports: 44 27 26 21 17
}
