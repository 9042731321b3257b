package query

import (
	"context"
	"math"
	"net/http"
	"sync"

	"homesight/internal/aggregate"
	"homesight/internal/dominance"
	"homesight/internal/motif"
	"homesight/internal/timeseries"
)

// SummaryDevice is one device's activity profile in a home summary:
// the low-level activity indicators (duty cycle, burstiness — the
// features the related category-inference work builds on) plus its
// Def. 4 dominance standing.
type SummaryDevice struct {
	MAC  string `json:"mac"`
	Name string `json:"name,omitempty"`
	Type string `json:"type"`
	// DutyCycle is the fraction of observed minutes with nonzero
	// traffic.
	DutyCycle float64 `json:"duty_cycle"`
	// Burstiness is (σ−μ)/(σ+μ) over the observed per-minute traffic:
	// -1 periodic, 0 Poissonian, →1 extremely bursty.
	Burstiness float64 `json:"burstiness"`
	// Traffic is the device's total observed traffic (bytes, both
	// directions).
	Traffic float64 `json:"traffic"`
	// Dominant reports φ-dominance (Def. 4); Similarity is the Def. 1
	// correlation similarity to the gateway overall.
	Dominant   bool    `json:"dominant"`
	Similarity float64 `json:"similarity"`
}

// SummaryMotifs counts the motifs (Def. 5) mined from the home's
// overall traffic at the paper's best granularities.
type SummaryMotifs struct {
	Daily  int `json:"daily"`  // 3h-binned day windows
	Weekly int `json:"weekly"` // 8h-binned week windows (2h phase)
}

// Summary is the /api/v1/homes/{gw}/summary payload.
type Summary struct {
	Gateway string `json:"gateway"`
	// From/To is the campaign window the summary covers, unix seconds.
	From    int64           `json:"from"`
	To      int64           `json:"to"`
	Devices []SummaryDevice `json:"devices"`
	// Dominants lists the φ-dominant device MACs in descending
	// similarity order ("first dominant" first).
	Dominants []string      `json:"dominants"`
	Motifs    SummaryMotifs `json:"motifs"`
}

// summaryMemo keeps each home's last /summary body outside the response
// LRU: a summary costs tens of milliseconds to build and a KB to keep,
// and in the LRU it was evicted by answers that cost microseconds to
// rebuild long before it was asked for again. One slot per catalogued
// gateway (gateways never leave the catalog, so the memo is bounded by
// it), each under its own mutex: concurrent misses for one home build
// once, misses for different homes do not wait for each other.
type summaryMemo struct {
	mu    sync.Mutex
	homes map[string]*summarySlot
}

// summarySlot is one home's memoised body and what it was built at: the
// home's store.HomeVersion and the campaign end (the summary window's
// To, which a point for any home can move).
type summarySlot struct {
	mu       sync.Mutex
	ver, end int64
	body     []byte // nil until the first build
}

func newSummaryMemo() *summaryMemo {
	return &summaryMemo{homes: make(map[string]*summarySlot)}
}

// slot returns (creating if needed) gw's slot; callers have checked that
// gw is catalogued.
func (m *summaryMemo) slot(gw string) *summarySlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	sl := m.homes[gw]
	if sl == nil {
		sl = &summarySlot{}
		m.homes[gw] = sl
	}
	return sl
}

func (a *API) handleSummary(r *http.Request) ([]byte, error) {
	gw := r.PathValue("gw")
	if _, ok := a.st.HomeVersion(gw); !ok {
		return nil, notFoundf("unknown gateway %q", gw)
	}
	if a.summaries == nil {
		a.m.misses.Inc()
		return a.summaryBody(r.Context(), gw)
	}
	sl := a.summaries.slot(gw)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	// Read under the slot's lock, so a request that waited out another's
	// build compares the slot with the store as it is now.
	ver, _ := a.st.HomeVersion(gw)
	_, campaignEnd := a.st.Campaign()
	end := campaignEnd.Unix()
	if sl.body != nil && sl.ver == ver && sl.end == end {
		a.m.hits.Inc()
		return sl.body, nil
	}
	a.m.misses.Inc()
	// Single flight: sl.mu guards this one home's slot, and holding it
	// across the build is what makes concurrent misses wait for one build
	// instead of running sixteen.
	body, err := a.summaryBody(r.Context(), gw)
	if err != nil {
		return nil, err
	}
	sl.ver, sl.end, sl.body = ver, end, body
	return body, nil
}

func (a *API) summaryBody(ctx context.Context, gw string) ([]byte, error) {
	sum, err := a.buildSummary(ctx, gw)
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(Wrap(sum))
}

// buildSummary reads gw's minute table over the campaign (store.Home)
// and derives the summary: activity features per device, φ-dominance
// against the summed gateway overall, and daily/weekly motif counts.
func (a *API) buildSummary(ctx context.Context, gw string) (*Summary, error) {
	start, end := a.st.Campaign()
	sum := &Summary{Gateway: gw, From: start.Unix(), To: end.Unix()}
	home, err := a.st.Home(ctx, gw, end)
	if err != nil {
		return nil, err
	}
	if len(home.Devices) == 0 {
		return sum, nil // gateway known but nothing stored yet
	}
	devSeries := make([]dominance.DeviceSeries, len(home.Devices))
	for k, d := range home.Devices {
		devSeries[k] = dominance.DeviceSeries{Device: d.Device, Series: d.Overall()}
	}

	dom := dominance.Default.Detect(home.Overall, devSeries)
	bySim := make(map[string]float64, len(dom.All))
	for _, sc := range dom.All {
		bySim[sc.Device.MAC] = sc.Similarity
	}
	isDom := make(map[string]bool, len(dom.Dominants))
	for _, sc := range dom.Dominants {
		isDom[sc.Device.MAC] = true
		sum.Dominants = append(sum.Dominants, sc.Device.MAC)
	}
	for _, ds := range devSeries {
		duty, burst, traffic := activityFeatures(ds.Series.Values)
		sum.Devices = append(sum.Devices, SummaryDevice{
			MAC:        ds.Device.MAC,
			Name:       ds.Device.Name,
			Type:       string(ds.Device.Inferred),
			DutyCycle:  duty,
			Burstiness: burst,
			Traffic:    traffic,
			Dominant:   isDom[ds.Device.MAC],
			Similarity: bySim[ds.Device.MAC],
		})
	}

	daily, err := motifCount(gw, home.Overall, aggregate.BestDaily)
	if err != nil {
		return nil, err
	}
	weekly, err := motifCount(gw, home.Overall, aggregate.BestWeekly)
	if err != nil {
		return nil, err
	}
	sum.Motifs = SummaryMotifs{Daily: daily, Weekly: weekly}
	return sum, nil
}

// activityFeatures derives (duty cycle, burstiness, total traffic) from
// a per-minute delta series; NaN minutes are unobserved and excluded.
func activityFeatures(vals []float64) (duty, burst, traffic float64) {
	var n, active int
	var sum float64
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		n++
		sum += v
		if v > 0 {
			active++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	mean := sum / float64(n)
	var sq float64
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		sq += (v - mean) * (v - mean)
	}
	sigma := math.Sqrt(sq / float64(n))
	if denom := sigma + mean; denom > 0 {
		burst = (sigma - mean) / denom
	}
	return float64(active) / float64(n), burst, sum
}

// motifCount mines the home's overall series at one window spec and
// returns the motif count; windows with no observations are dropped, as
// in the experiments pipeline.
func motifCount(gw string, overall *timeseries.Series, spec timeseries.WindowSpec) (int, error) {
	instances, err := motif.Instances(gw, overall, spec)
	if err != nil {
		return 0, err
	}
	return len(motif.Default.Mine(instances)), nil
}
