package query

import (
	"context"
	"net/http"
	"sync"

	"homesight/internal/livestats"
)

// SummaryDevice is a livestats.DeviceProfile on the wire: the low-level
// activity indicators (duty cycle, burstiness — the features the related
// category-inference work builds on), the total observed traffic (bytes,
// both directions), and the Def. 4 verdict and Def. 1 similarity.
type SummaryDevice struct {
	MAC        string  `json:"mac"`
	Name       string  `json:"name,omitempty"`
	Type       string  `json:"type"`
	DutyCycle  float64 `json:"duty_cycle"`
	Burstiness float64 `json:"burstiness"`
	Traffic    float64 `json:"traffic"`
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
	// similarity order ("first dominant" first). Empty lists are [].
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

// summaryBody reads gw's minute table over the campaign (store.Home),
// profiles it (livestats.Profile) and encodes the profile as the
// summary envelope.
func (a *API) summaryBody(ctx context.Context, gw string) ([]byte, error) {
	start, end := a.st.Campaign()
	home, err := a.st.Home(ctx, gw, end)
	if err != nil {
		return nil, err
	}
	p, err := livestats.Profile(home)
	if err != nil {
		return nil, err
	}
	sum := Summary{
		Gateway:   gw,
		From:      start.Unix(),
		To:        end.Unix(),
		Devices:   make([]SummaryDevice, 0, len(p.Devices)),
		Dominants: make([]string, 0, len(p.Dominance.Dominants)),
		Motifs:    SummaryMotifs{Daily: p.DailyMotifs, Weekly: p.WeeklyMotifs},
	}
	for _, d := range p.Devices {
		sum.Devices = append(sum.Devices, SummaryDevice{
			MAC:        d.Device.MAC,
			Name:       d.Device.Name,
			Type:       string(d.Device.Inferred),
			DutyCycle:  d.DutyCycle,
			Burstiness: d.Burstiness,
			Traffic:    d.Traffic,
			Dominant:   d.Dominant,
			Similarity: d.Similarity,
		})
	}
	for _, sc := range p.Dominance.Dominants {
		sum.Dominants = append(sum.Dominants, sc.Device.MAC)
	}
	return encodeEnvelope(Wrap(sum))
}
