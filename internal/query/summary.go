package query

import (
	"context"
	"math"
	"net/http"
	"sync"

	"homesight/internal/aggregate"
	"homesight/internal/devices"
	"homesight/internal/dominance"
	"homesight/internal/motif"
	"homesight/internal/store"
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
	//homesight:ignore lock-held — single flight: sl.mu guards this one home's slot, and holding it across the build is what makes concurrent misses wait for one build instead of running sixteen
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

// buildSummary reconstructs every device of gw over the campaign and
// derives the summary: activity features per device, φ-dominance
// against the summed gateway overall, and daily/weekly motif counts.
func (a *API) buildSummary(ctx context.Context, gw string) (*Summary, error) {
	start, end := a.st.Campaign()
	sum := &Summary{Gateway: gw, From: start.Unix(), To: end.Unix()}

	var overall *timeseries.Series
	var devSeries []dominance.DeviceSeries
	for _, mac := range a.st.Devices(gw) {
		var res [2]*store.Result
		for dir := 0; dir < 2; dir++ {
			var err error
			res[dir], err = a.st.Query(ctx, store.QueryRequest{
				Key:         store.Key{Gateway: gw, Device: mac, Dir: store.Direction(dir)},
				Reconstruct: true,
			})
			if err != nil {
				return nil, err
			}
		}
		if res[0].LastIndex < 0 && res[1].LastIndex < 0 {
			continue // cataloged but no samples survived
		}
		devOverall, err := res[0].Series.Add(res[1].Series)
		if err != nil {
			return nil, err // unreachable: both series share the campaign grid
		}
		name := a.st.DeviceName(gw, mac)
		duty, burst, traffic := activityFeatures(devOverall.Values)
		sum.Devices = append(sum.Devices, SummaryDevice{
			MAC:        mac,
			Name:       name,
			Type:       string(devices.Classify(mac, name)),
			DutyCycle:  duty,
			Burstiness: burst,
			Traffic:    traffic,
		})
		devSeries = append(devSeries, dominance.DeviceSeries{
			Device: devices.Device{MAC: mac, Name: name, Inferred: devices.Classify(mac, name)},
			Series: devOverall,
		})
		if overall == nil {
			overall = devOverall.Clone()
		} else if overall, err = overall.Add(devOverall); err != nil {
			return nil, err // unreachable: same grid by construction
		}
	}
	if overall == nil {
		return sum, nil // gateway known but nothing stored yet
	}

	dom := dominance.Default.Detect(overall, devSeries)
	bySim := make(map[string]float64, len(dom.All))
	for _, sc := range dom.All {
		bySim[sc.Device.MAC] = sc.Similarity
	}
	isDom := make(map[string]bool, len(dom.Dominants))
	for _, sc := range dom.Dominants {
		isDom[sc.Device.MAC] = true
		sum.Dominants = append(sum.Dominants, sc.Device.MAC)
	}
	for i := range sum.Devices {
		d := &sum.Devices[i]
		d.Similarity = bySim[d.MAC]
		d.Dominant = isDom[d.MAC]
	}

	daily, err := motifCount(gw, overall, aggregate.BestDaily)
	if err != nil {
		return nil, err
	}
	weekly, err := motifCount(gw, overall, aggregate.BestWeekly)
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
	windows, err := spec.Windows(overall)
	if err != nil {
		return 0, err
	}
	var instances []motif.Instance
	for _, w := range windows {
		if !w.Observed() {
			continue
		}
		instances = append(instances, motif.Instance{GatewayID: gw, Window: w})
	}
	return len(motif.Default.Mine(instances)), nil
}
