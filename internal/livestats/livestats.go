// Package livestats maintains the paper's per-home analyses as O(1)
// online operators over the ingest stream, so Definition 1 correlation
// similarity, Definition 4 φ-dominance and the Sec. 6.1 background
// thresholds are servable at any moment without re-scanning the store.
//
// A Tracker consumes gateway reports through OnReport, which a fleet
// shard calls for every report it has made durable, and keeps, per home
// and per device:
//
//   - a CoMoment accumulator — exact running Pearson r against the
//     home's aggregate traffic, p-value included;
//   - a RankSketch — bounded reservoir backing Spearman ρ and Kendall
//     τ-b (exact while the stream fits, uniform-sample estimates
//     beyond);
//   - two QuantileSketches — the per-direction Tukey-whisker background
//     threshold τ, read off a counting histogram of the byte deltas
//     (exact below 8 192 bytes, 2^-7-relative buckets above);
//   - exact running Euclidean-distance and traffic-volume accumulators
//     for the Sec. 6.2 baseline rankings.
//
// Snapshot assembles these into the batch result types (corr.Result,
// dominance.Result, background.Threshold), gated through
// corrsim.Detail.SimilarityUnder exactly as the offline pipeline gates
// them, at the paper's parameters: corrsim.Measure{} (α 0.05) and
// φ = dominance.DefaultPhi, neither of them a setting. Per-device
// watermark indices make the tracker idempotent under duplicate and
// out-of-order delivery — the same discipline as the store's WAL
// watermarks, so a tracker rebuilt from a partition's durable history
// (Rebuild) converges with one that saw the live stream. STREAMING.md
// documents the operator catalog and the tolerance contracts; Profile's
// HomeProfile is the batch twin the reconciliation tests (and `homesight
// collector -demo -live`) compare against.
package livestats

import (
	"cmp"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/devices"
	"homesight/internal/dominance"
	"homesight/internal/gateway"
	"homesight/internal/stats/corr"
)

// DefaultRankCap is the default reservoir capacity: it covers a
// 1024-minute (~17 h) stream exactly and samples deployment-length ones.
const DefaultRankCap = 1024

// Config configures a Tracker.
type Config struct {
	// Start and Step anchor the minute grid, exactly as in
	// gateway.NewRecorder and store.Config. Step 0 → one minute.
	Start time.Time
	Step  time.Duration
	// RankCap sizes the rank reservoir per device (0 → DefaultRankCap).
	RankCap int
	// Seed derives the per-device reservoir RNGs (mixed with a hash of
	// gateway and MAC), so snapshots are reproducible run to run.
	Seed int64
	// Metrics receives the homesight_live_* instruments; nil keeps
	// counting on a private registry.
	Metrics *Metrics
}

func (cfg Config) withDefaults() Config {
	if cfg.Step <= 0 {
		cfg.Step = time.Minute
	}
	if cfg.RankCap <= 0 {
		cfg.RankCap = DefaultRankCap
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	return cfg
}

// deviceState is one device's operator bundle.
type deviceState struct {
	dev     devices.Device
	rx, tx  gateway.Meter
	lastIdx int

	pearson CoMoment
	ranks   *RankSketch
	// rankMemo holds ρ and τ at the reservoir generation they were last
	// computed for; Snapshot recomputes only when ranks has moved on.
	rankMemo rankMemo
	// eucA = Σ (x−G)² and eucB = Σ G² over the device's observed
	// minutes; with the home's global Σ G² they give the exact
	// missing-as-zero Euclidean distance (see home snapshot).
	eucA, eucB float64
	traffic    float64
	qin, qout  QuantileSketch
}

// home is one gateway's live state; it has its own lock so snapshots
// of one home never stall ingest for another.
type home struct {
	mu      sync.Mutex
	id      string
	devs    map[string]*deviceState
	byMAC   []*deviceState // devs' values in ascending MAC order
	sg2     float64        // Σ G² over every minute the home was observed
	minutes int64          // minutes with at least one valid delta
	reports int64

	// last resolves a report's rows by their slot in the home's previous
	// report; only a device that joined or moved goes to devs.
	last gateway.Slots[*deviceState]

	// scratch carries the per-report valid deltas between the two
	// passes of update without a per-report allocation.
	scratch []pendingDelta
}

type pendingDelta struct {
	ds *deviceState
	x  float64
}

// Tracker maintains live state for every home on one ingest path.
// OnReport is safe for concurrent use across homes.
type Tracker struct {
	cfg Config
	// now is the operator-latency clock.
	now   func() time.Time
	mu    sync.RWMutex
	homes map[string]*home
}

// NewTracker returns a tracker for the given grid.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{cfg: cfg, now: time.Now, homes: make(map[string]*home)}
}

// deviceSeed derives a stable per-device RNG seed from the config seed
// and the (gateway, MAC) identity.
func (t *Tracker) deviceSeed(gw, mac string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(gw))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(mac))
	return t.cfg.Seed ^ int64(h.Sum64())
}

// OnReport consumes one gateway report: it differences the cumulative
// counters into per-minute deltas (wrap-aware, gap-resetting — the
// gateway.Recorder discipline), pairs every valid delta with the
// report's aggregate G, and advances each device's operators. Reports
// at or below a device's watermark index are skipped per device, which
// makes redelivery and replay idempotent. O(devices) per report,
// independent of stream length.
func (t *Tracker) OnReport(rep gateway.Report) {
	start := t.now()
	idx := gateway.GridIndex(rep.Timestamp, t.cfg.Start, t.cfg.Step)
	if idx < 0 {
		t.cfg.Metrics.Stale.Add(int64(len(rep.Devices)))
		return
	}
	h := t.home(rep.GatewayID)
	stale := t.update(h, idx, rep)
	if stale > 0 {
		t.cfg.Metrics.Stale.Add(stale)
	}
	t.cfg.Metrics.Reports.Inc()
	t.cfg.Metrics.UpdateSeconds.Observe(t.now().Sub(start).Seconds())
}

// home returns (creating if needed) the state for one gateway.
func (t *Tracker) home(gw string) *home {
	t.mu.RLock()
	h := t.homes[gw]
	t.mu.RUnlock()
	if h != nil {
		return h
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h = t.homes[gw]; h == nil {
		h = &home{id: gw, devs: make(map[string]*deviceState)}
		t.homes[gw] = h
		t.cfg.Metrics.Homes.Inc()
	}
	return h
}

// device returns (creating if needed) the state of a report row's device.
// Caller holds h.mu.
func (t *Tracker) device(h *home, dc gateway.DeviceCounters) *deviceState {
	if ds := h.devs[dc.MAC]; ds != nil {
		return ds
	}
	ds := &deviceState{
		dev:     devices.Device{MAC: dc.MAC, Name: dc.Name, Inferred: devices.Classify(dc.MAC, dc.Name)},
		lastIdx: -1,
		ranks:   NewRankSketch(t.cfg.RankCap, t.deviceSeed(h.id, dc.MAC)),
	}
	h.devs[dc.MAC] = ds
	at := sort.Search(len(h.byMAC), func(i int) bool { return h.byMAC[i].dev.MAC > dc.MAC })
	h.byMAC = slices.Insert(h.byMAC, at, ds)
	t.cfg.Metrics.Devices.Inc()
	return ds
}

// update applies one report to a home under its lock and returns the
// number of stale (watermark-skipped) device rows.
func (t *Tracker) update(h *home, idx int, rep gateway.Report) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reports++
	var staleRows int64
	pending := h.scratch[:0]
	g := 0.0
	for i, dc := range rep.Devices {
		ds, ok := h.last.Get(i, dc.MAC)
		if !ok {
			ds = t.device(h, dc)
			h.last.Set(i, dc.MAC, ds)
		}
		if ds.dev.Name == "" && dc.Name != "" {
			ds.dev.Name = dc.Name
			ds.dev.Inferred = devices.Classify(dc.MAC, dc.Name)
		}
		// The per-device watermark: a duplicate or reordered row is
		// dropped without touching the meters, exactly as the store's
		// WAL watermark drops a replayed point.
		if ds.lastIdx >= 0 && idx <= ds.lastIdx {
			staleRows++
			continue
		}
		// A gap makes deltas unattributable: reset, as in
		// gateway.Recorder.Ingest.
		if ds.lastIdx >= 0 && idx != ds.lastIdx+1 {
			ds.rx.Reset()
			ds.tx.Reset()
		}
		din, okIn := ds.rx.Delta(dc.RxBytes)
		dout, okOut := ds.tx.Delta(dc.TxBytes)
		ds.lastIdx = idx
		if !okIn || !okOut {
			continue // first reading after init/reset: no interval
		}
		ds.qin.Observe(din)
		ds.qout.Observe(dout)
		x := float64(din) + float64(dout)
		g += x
		pending = append(pending, pendingDelta{ds: ds, x: x})
	}
	if len(pending) > 0 {
		h.minutes++
		h.sg2 += g * g
		for _, p := range pending {
			p.ds.pearson.Add(p.x, g)
			p.ds.ranks.Observe(p.x, g)
			d := p.x - g
			p.ds.eucA += d * d
			p.ds.eucB += g * g
			p.ds.traffic += p.x
		}
	}
	h.scratch = pending[:0]
	return staleRows
}

// DeviceLive is one device's live standing — the online mirror of a
// dominance.Score row plus the coefficients and threshold behind it.
type DeviceLive struct {
	Device devices.Device
	// Pairs is the number of observed (device, aggregate) minute pairs
	// — Detail.N in the batch pipeline.
	Pairs int64
	// Pearson, Spearman and Kendall are the online coefficients; the
	// rank pair is reservoir-sampled once the stream exceeds RankCap.
	Pearson, Spearman, Kendall corr.Result
	// Similarity is the Definition 1 gated maximum (all three
	// coefficients at α 0.05, corrsim.Measure{}); Dominant is the
	// Definition 4 verdict at φ = dominance.DefaultPhi.
	Similarity float64
	Dominant   bool
	// Euclidean and Traffic are the Sec. 6.2 baseline scores, exact.
	Euclidean float64
	Traffic   float64
	// Threshold carries the per-direction Sec. 6.1 whisker estimates;
	// Tau is the capped device-level threshold; Group its size class.
	Threshold background.Threshold
	Tau       float64
	Group     background.Group
	// RankSampled flags estimate (vs exact) mode for the rank
	// coefficients.
	RankSampled bool
}

// HomeSnapshot is one home's live analysis — the online mirror of a
// HomeProfile: every device scored against the aggregate, descending
// by similarity.
type HomeSnapshot struct {
	Gateway string
	// Reports counts reports consumed for this home; Minutes counts
	// minutes with at least one valid delta.
	Reports int64
	Minutes int64
	// Phi is the dominance threshold the verdicts used
	// (dominance.DefaultPhi).
	Phi     float64
	Devices []DeviceLive
}

// Homes returns the tracked gateway IDs, sorted.
func (t *Tracker) Homes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.homes))
	for gw := range t.homes {
		out = append(out, gw)
	}
	sort.Strings(out)
	return out
}

// Snapshot assembles the live analysis of one home from the operator
// state and never touches the store. One read-out is not O(1): the rank
// pair costs one pass of the rank kernel over the reservoir. It is
// memoised per device against the reservoir's generation, so it is paid
// only for devices that changed since the last snapshot: the cost is
// O(devices + dirty devices · RankCap), and an unchanged home allocates
// nothing beyond the HomeSnapshot it returns. The whiskers are a walk over
// the histogram pages a device has touched, with no sort. The second
// return is false for an untracked gateway.
func (t *Tracker) Snapshot(gw string) (*HomeSnapshot, bool) {
	start := t.now()
	t.mu.RLock()
	h := t.homes[gw]
	t.mu.RUnlock()
	if h == nil {
		return nil, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := &HomeSnapshot{
		Gateway: gw,
		Reports: h.reports,
		Minutes: h.minutes,
		Phi:     dominance.DefaultPhi,
		Devices: make([]DeviceLive, 0, len(h.byMAC)),
	}
	for _, ds := range h.byMAC {
		rho, tau := ds.rankMemo.coefficients(ds.ranks)
		detail := corrsim.Detail{
			Pearson:  ds.pearson.Result(),
			Spearman: rho,
			Kendall:  tau,
			N:        int(ds.pearson.N()),
		}
		detail.Similarity = detail.SimilarityUnder(corrsim.Measure{})
		// Σ(x−G)² over observed minutes plus Σ G² over the home's other
		// observed minutes (where the device's missing value counts as
		// zero) is exactly the batch Euclidean distance, which reads any
		// missing minute as zero; unobserved home minutes contribute
		// (0−0)². Rounding can push the difference a hair negative — clamp.
		euc := math.Sqrt(math.Max(0, ds.eucA+(h.sg2-ds.eucB)))
		th := background.Threshold{TauIn: ds.qin.Whisker(), TauOut: ds.qout.Whisker()}
		snap.Devices = append(snap.Devices, DeviceLive{
			Device:      ds.dev,
			Pairs:       ds.pearson.N(),
			Pearson:     detail.Pearson,
			Spearman:    detail.Spearman,
			Kendall:     detail.Kendall,
			Similarity:  detail.Similarity,
			Dominant:    detail.Similarity > dominance.DefaultPhi,
			Euclidean:   euc,
			Traffic:     ds.traffic,
			Threshold:   th,
			Tau:         th.Tau(),
			Group:       background.GroupOf(math.Max(th.TauIn, th.TauOut)),
			RankSampled: ds.ranks.Sampled(),
		})
	}
	slices.SortStableFunc(snap.Devices, func(a, b DeviceLive) int {
		return cmp.Compare(b.Similarity, a.Similarity)
	})
	t.cfg.Metrics.SnapshotSeconds.Observe(t.now().Sub(start).Seconds())
	return snap, true
}

// LiveHomes and LiveSnapshot alias Homes and Snapshot so a Tracker
// satisfies the query tier's LiveSource directly (fleet.Fleet uses the
// same pair of names to fan the lookup out across shards).
func (t *Tracker) LiveHomes() []string { return t.Homes() }

// LiveSnapshot is Snapshot under the LiveSource name.
func (t *Tracker) LiveSnapshot(gw string) (*HomeSnapshot, bool) { return t.Snapshot(gw) }
