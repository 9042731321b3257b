package telemetry

import (
	"math"
	"sort"
	"sync"
	"time"

	"homesight/internal/background"
	"homesight/internal/gateway"
	"homesight/internal/motif"
	"homesight/internal/timeseries"
)

// NoThreshold, assigned to StreamingMotifs.Tau, disables background
// removal entirely: every observed minute participates in aggregation.
// Any negative Tau means the same; Tau == 0 (the zero value) keeps the
// paper's cap. Before this sentinel existed, 0 was silently rewritten to
// the cap and "no threshold" was inexpressible.
const NoThreshold = -1

// StreamStats is a snapshot of the streaming stage's drop accounting.
type StreamStats struct {
	// ReportsAccepted counts reports folded into a day buffer's gateway
	// state (late duplicates excluded).
	ReportsAccepted int64 `json:"reports_accepted"`
	// LateDropped counts reports at or before a gateway's newest accepted
	// timestamp: replays and reordered stragglers. Accepting them would
	// corrupt the meters (cumulative counters are differenced in arrival
	// order) and flap the live day buffer.
	LateDropped int64 `json:"late_dropped"`
	// DaysEmitted counts completed day windows handed to the matcher.
	DaysEmitted int64 `json:"days_emitted"`
}

// StreamingMotifs is the streaming analytics stage the paper names as
// future work: it consumes the live report stream, reconstructs each
// gateway's per-minute traffic, and the moment a calendar day completes it
// aggregates the day into 3-hour bins, removes background traffic and
// matches the window against the motifs discovered so far. Feed it each
// gateway's reports in time order (cmd/collector -demo feeds the
// campaign reconstructed from the fleet's partitions, gateway by
// gateway).
type StreamingMotifs struct {
	// Spec is the window mapping (zero value → the paper's best daily
	// spec, 3h bins).
	Spec timeseries.WindowSpec
	// Tau is the background threshold applied to minute values before
	// aggregation: 0 → the paper's cap (background.CapBytes), negative
	// (canonically NoThreshold) → no background removal.
	Tau float64
	// Matcher accumulates motifs (zero value = paper thresholds).
	Matcher motif.Online

	mu     sync.Mutex
	meters map[string]map[string]*struct{ rx, tx gateway.Meter }
	days   map[string]*dayBuffer
	last   map[string]time.Time // newest accepted timestamp per gateway
	stats  StreamStats
}

type dayBuffer struct {
	day  time.Time // midnight anchor of the buffered day
	vals []float64 // 1440 per-minute totals, NaN = unobserved
	seen int
}

func (sm *StreamingMotifs) spec() timeseries.WindowSpec {
	if sm.Spec.Period == 0 {
		return timeseries.DailySpec(3 * time.Hour)
	}
	return sm.Spec
}

// tau resolves the background threshold and whether to apply one at all.
func (sm *StreamingMotifs) tau() (float64, bool) {
	if sm.Tau < 0 {
		return 0, false // NoThreshold: background removal disabled
	}
	if sm.Tau == 0 { //homesight:ignore zero-sentinel — zero keeps the paper cap; NoThreshold expresses "none"
		return background.CapBytes, true
	}
	return sm.Tau, true
}

// Feed consumes one report. Reports must be non-decreasing in time per
// gateway; a late or duplicate report is dropped and counted (see
// StreamStats.LateDropped) rather than corrupting the meters or
// replacing the live day buffer with a stale day.
func (sm *StreamingMotifs) Feed(rep gateway.Report) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.meters == nil {
		sm.meters = make(map[string]map[string]*struct{ rx, tx gateway.Meter })
		sm.days = make(map[string]*dayBuffer)
		sm.last = make(map[string]time.Time)
	}
	ts := rep.Timestamp.UTC()
	if last, ok := sm.last[rep.GatewayID]; ok && !ts.After(last) {
		sm.stats.LateDropped++
		return
	}
	sm.last[rep.GatewayID] = ts
	sm.stats.ReportsAccepted++

	gm := sm.meters[rep.GatewayID]
	if gm == nil {
		gm = make(map[string]*struct{ rx, tx gateway.Meter })
		sm.meters[rep.GatewayID] = gm
	}

	day := time.Date(ts.Year(), ts.Month(), ts.Day(), 0, 0, 0, 0, time.UTC)
	buf := sm.days[rep.GatewayID]
	if buf == nil || !buf.day.Equal(day) {
		// Timestamps are monotone per gateway, so a day change always
		// moves forward: the buffered day is complete.
		if buf != nil && buf.seen > 0 {
			sm.finishDay(rep.GatewayID, buf)
		}
		buf = newDayBuffer(day)
		sm.days[rep.GatewayID] = buf
	}

	total := 0.0
	counted := false
	for _, dc := range rep.Devices {
		m := gm[dc.MAC]
		if m == nil {
			m = &struct{ rx, tx gateway.Meter }{}
			gm[dc.MAC] = m
		}
		din, okIn := m.rx.Delta(dc.RxBytes)
		dout, okOut := m.tx.Delta(dc.TxBytes)
		if okIn && okOut {
			total += float64(din + dout)
			counted = true
		}
	}
	if counted {
		minuteOfDay := ts.Hour()*60 + ts.Minute()
		buf.vals[minuteOfDay] = total
		buf.seen++
	}
}

// Stats returns a snapshot of the streaming stage's drop accounting.
func (sm *StreamingMotifs) Stats() StreamStats {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.stats
}

func newDayBuffer(day time.Time) *dayBuffer {
	vals := make([]float64, 24*60)
	for i := range vals {
		vals[i] = math.NaN()
	}
	return &dayBuffer{day: day, vals: vals}
}

// finishDay aggregates a completed day and feeds it to the matcher.
// Called with the lock held.
func (sm *StreamingMotifs) finishDay(gatewayID string, buf *dayBuffer) {
	spec := sm.spec()
	s := timeseries.New(buf.day, time.Minute, buf.vals)
	if tau, apply := sm.tau(); apply {
		s = s.Threshold(tau)
	}
	wins, err := spec.Windows(s)
	if err != nil || len(wins) == 0 {
		return
	}
	w := wins[0]
	if !w.Observed() {
		return
	}
	sm.Matcher.Add(motif.Instance{GatewayID: gatewayID, Window: w})
	sm.stats.DaysEmitted++
}

// Flush finalizes all pending day buffers (end of stream), in gateway
// order: the matcher's motifs depend on the order days reach it.
func (sm *StreamingMotifs) Flush() {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	gws := make([]string, 0, len(sm.days))
	for gw := range sm.days {
		gws = append(gws, gw)
	}
	sort.Strings(gws)
	for _, gw := range gws {
		if buf := sm.days[gw]; buf.seen > 0 {
			sm.finishDay(gw, buf)
		}
	}
	sm.days = make(map[string]*dayBuffer)
}

// Motifs consolidates and returns the motifs discovered so far.
func (sm *StreamingMotifs) Motifs() []*motif.Motif {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.Matcher.Consolidate()
}
