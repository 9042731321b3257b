package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"homesight/internal/obs"
	"homesight/internal/query"
	"homesight/internal/store"
)

// Request classes of the series_read mix, in the order of classBlock.
const (
	classRollup  = iota // /series at 3h or 8h, whole campaign: cached, rollup-backed
	classRaw            // /series raw, one 24 h window at a random day: uncached by design
	classDevices        // /homes/{gw}/devices
	classSummary        // /homes/{gw}/summary: a miss recomputes dominance and motifs
	numClasses
)

// classBlock is the fixed request mix, as counts per 50 requests: 60 %
// rollup, 30 % raw, 8 % devices, 2 % summary. A client issues block
// after block, each in a freshly shuffled order, so the shares are
// exact rather than sampled — a summary miss costs ~700 rollup hits,
// and a run that happened to draw a few more of them would measure the
// dice.
var classBlock = [numClasses]int{30, 15, 4, 1}

// zipfS skews the (home, device) popularity so that the hot keys fit
// the query tier's 128-entry response LRU and the tail does not.
const zipfS = 1.1

// seriesKey is one (home, device) pair the mix draws from.
type seriesKey struct{ gw, mac string }

// servedStore is a compacted homestore behind the query tier on
// loopback: the `homestore serve` deployment.
type servedStore struct {
	dir  string
	st   *stream
	db   *store.Store
	reg  *obs.Registry
	api  *apiServer
	keys []seriesKey

	loadS, flushS, compactS float64
	reports                 int64
}

func (s *servedStore) discard() error {
	if err := s.api.close(); err != nil {
		return err
	}
	if err := s.db.Close(); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}

func loadServedStore(r *run, dir string) (*servedStore, error) {
	sc := r.sc
	st, err := newStream(r.seed, sc.seriesHomes, sc.seriesWeeks)
	if err != nil {
		return nil, err
	}
	db, err := store.Open(store.Config{Dir: dir, Start: st.start, Step: time.Minute, Sync: store.SyncNever})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	s := &servedStore{dir: dir, st: st, db: db, reg: obs.NewRegistry()}
	t0 := time.Now()
	for m := 0; m < st.minutes; m++ {
		for _, h := range st.homes {
			rep, ok := st.report(h, m)
			if !ok {
				continue
			}
			if err := db.Append(rep); err != nil {
				return nil, fmt.Errorf("loading minute %d of %s: %w", m, h.id, err)
			}
			s.reports++
		}
	}
	t1 := time.Now()
	if err := db.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	t2 := time.Now()
	if err := db.Compact(); err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	s.loadS, s.flushS, s.compactS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()

	// The mix draws from what the store knows: a home that never
	// reported, or a device that never connected, has no series to read.
	for _, gw := range db.Gateways() {
		for _, mac := range db.Devices(gw) {
			s.keys = append(s.keys, seriesKey{gw, mac})
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(s.keys), func(i, j int) { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] })

	s.api, err = serveAPI(query.New(query.Config{Store: db, Registry: s.reg}).Handler())
	if err != nil {
		return nil, err
	}
	return s, nil
}

// cacheCounters re-binds the query tier's cache counters on the
// registry handed to query.Config (registration is idempotent).
func (s *servedStore) cacheCounters() (hits, misses *obs.Counter) {
	return s.reg.Counter("homesight_query_cache_hits_total", "Query response cache hits."),
		s.reg.Counter("homesight_query_cache_misses_total", "Query response cache misses (including lookups with the cache disabled).")
}

// mixer draws requests of the fixed mix for one client.
type mixer struct {
	s     *servedStore
	rng   *rand.Rand
	zipf  *rand.Zipf
	days  int
	block []int // the classes of the current block, shuffled
	pos   int
}

func (s *servedStore) newMixer(seed int64) *mixer {
	rng := rand.New(rand.NewSource(seed))
	return &mixer{
		s: s, rng: rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(s.keys)-1)),
		days: s.st.minutes / (24 * 60),
	}
}

var (
	rollupGrans = []store.Granularity{store.Gran3h, store.Gran8h}
	rollupAggs  = []store.Aggregation{store.AggSum, store.AggMean, store.AggMax}
)

// next draws one request: its class and URL.
func (m *mixer) next() (class int, u string) {
	if m.pos == len(m.block) {
		m.block, m.pos = m.block[:0], 0
		for c, n := range classBlock {
			for i := 0; i < n; i++ {
				m.block = append(m.block, c)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	class = m.block[m.pos]
	m.pos++
	k := m.s.keys[m.zipf.Uint64()]
	base := m.s.api.url + "/api/v1"
	switch class {
	case classDevices:
		return class, base + "/homes/" + k.gw + "/devices"
	case classSummary:
		return class, base + "/homes/" + k.gw + "/summary"
	}
	q := url.Values{"gw": {k.gw}, "device": {k.mac}, "dir": {store.Direction(m.rng.Intn(2)).String()}}
	if class == classRollup {
		q.Set("gran", rollupGrans[m.rng.Intn(len(rollupGrans))].String())
		q.Set("agg", rollupAggs[m.rng.Intn(len(rollupAggs))].String())
	} else {
		from := m.s.st.timeOf(m.rng.Intn(m.days) * 24 * 60)
		q.Set("from", fmt.Sprint(from.Unix()))
		q.Set("to", fmt.Sprint(from.Add(24*time.Hour).Unix()))
	}
	return class, base + "/series?" + q.Encode()
}

// runSeriesRead is the read-only closed loop: keep-alive clients issue
// the fixed mix against a compacted store whose working set is far
// larger than the response cache. Operation = one request; unit of work
// = one 200 response.
func runSeriesRead(ctx context.Context, r *run) error {
	sc := r.sc
	s, err := setUp(r, func(rep int) (*servedStore, error) {
		return loadServedStore(r, filepath.Join(r.dir, fmt.Sprintf("store-%d", rep)))
	}, (*servedStore).discard)
	if err != nil {
		return err
	}
	hits, misses := s.cacheCounters()
	hits0, misses0 := hits.Value(), misses.Value()

	// Timed phase.
	type clientLog struct {
		ops      []op
		class    []int
		bytes    int64
		failures int64
	}
	logs := make([]clientLog, sc.seriesClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			mix := s.newMixer(r.seed + int64(c) + 1)
			client := newClient()
			defer client.CloseIdleConnections()
			for id := int64(c); time.Now().Before(deadline); id += int64(sc.seriesClients) {
				class, u := mix.next()
				sp := r.rec.begin(classSpan[class], -1, id)
				t0 := time.Now()
				_, n, err := get(client, u)
				d := time.Since(t0)
				r.rec.end(sp)
				if err != nil {
					lg.failures++
					r.log.Warn("failed request", "url", u, "err", err)
					continue
				}
				lg.ops = append(lg.ops, op{At: t0.Sub(start).Seconds(), Ms: ms(d)})
				lg.class = append(lg.class, class)
				lg.bytes += int64(n)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	rss := peakRSSMB()

	var ops []op
	var failures, bodyBytes int64
	byClass := make([][]float64, numClasses)
	for _, lg := range logs {
		ops = append(ops, lg.ops...)
		failures += lg.failures
		bodyBytes += lg.bytes
		for i, o := range lg.ops {
			byClass[lg.class[i]] = append(byClass[lg.class[i]], o.Ms)
		}
	}
	if len(ops) == 0 {
		return fmt.Errorf("no request completed in %.1fs", r.seconds)
	}
	res := r.res
	tail, tailP := tailOf(ops)
	res.set(mWork, float64(len(ops))/wall.Seconds(), len(ops))
	res.set(mOpP50, windowedPercentile(ops, 0.5), len(ops))
	res.set(mOpTail, tail, len(ops))
	res.set(mPeakRSS, rss, 1)
	res.attempted = int64(len(ops)) + failures
	res.failed = failures
	res.check("requests_ok", failures == 0, "%d of %d requests failed", failures, res.attempted)
	r.log.Info("timed phase done", "requests", len(ops), "tail_percentile", tailP)

	if r.traced() {
		dh, dm := hits.Value()-hits0, misses.Value()-misses0
		if dh+dm > 0 {
			res.set("query.cache_hit_rate", float64(dh)/float64(dh+dm), int(dh+dm))
		}
		res.set("e2e.requests_per_s", res.metrics[mWork].Value, len(ops))
		res.set("e2e.req_p50_ms", res.metrics[mOpP50].Value, len(ops))
		res.set("e2e.req_p99_ms", windowedPercentile(ops, 0.99), len(ops))
		res.set("query.rollup_p50_us", median(byClass[classRollup])*1e3, len(byClass[classRollup]))
		res.set("query.raw24h_p50_us", median(byClass[classRaw])*1e3, len(byClass[classRaw]))
		res.set("query.devices_p50_us", median(byClass[classDevices])*1e3, len(byClass[classDevices]))
		res.set("query.bytes_per_response", float64(bodyBytes)/float64(len(ops)), len(ops))
		res.set("synth.generate_s", s.st.generateS, 1)
		res.set("store.append_ns_per_report", s.loadS*1e9/float64(s.reports), int(s.reports))
		res.set("store.flush_s", s.flushS, 1)
		res.set("store.compact_s", s.compactS, 1)
		if st := s.db.Stats(); st.SegmentPoints > 0 {
			res.set("store.segment_bytes_per_point", float64(st.SegmentBytes)/float64(st.SegmentPoints), int(st.SegmentPoints))
			res.set("store.compression_ratio", st.Compression, int(st.SegmentPoints))
		}
		tracedRun(r, wall)
		if err := s.summaryProbes(r); err != nil {
			return err
		}
	}
	if err := s.verifyAndProbeStore(ctx, r); err != nil {
		return err
	}
	return s.discard()
}

var classSpan = [numClasses]string{"query.series_rollup", "query.series_raw24h", "query.devices", "query.summary"}

// summaryProbes asks for each home's summary twice from one idle
// client, telling a miss from a hit by the cache counters.
func (s *servedStore) summaryProbes(r *run) error {
	hits, _ := s.cacheCounters()
	c := newClient()
	defer c.CloseIdleConnections()
	var miss, hit []float64
	for _, gw := range s.db.Gateways() {
		for i := 0; i < 2; i++ {
			before := hits.Value()
			t0 := time.Now()
			if _, _, err := get(c, s.api.url+"/api/v1/homes/"+gw+"/summary"); err != nil {
				return err
			}
			d := ms(time.Since(t0))
			if hits.Value() > before {
				hit = append(hit, d)
			} else {
				miss = append(miss, d)
			}
		}
	}
	r.res.set("query.summary_miss_p50_ms", median(miss), len(miss))
	r.res.set("query.summary_hit_p50_us", median(hit)*1e3, len(hit))
	return nil
}

// verifyAndProbeStore checks the served answers against the store's own
// raw points — a sampled 8 h /series answer must equal the fold of the
// raw counters, and rollup queries must decode no raw block — and, on a
// traced run, times store.Query directly.
func (s *servedStore) verifyAndProbeStore(ctx context.Context, r *run) error {
	c := newClient()
	defer c.CloseIdleConnections()
	mix := s.newMixer(r.seed)
	const width = 8 * 3600
	mismatches, bins := 0, 0
	for i := 0; i < 3; i++ {
		k := s.keys[mix.zipf.Uint64()]
		raw, err := s.db.Query(ctx, store.QueryRequest{Key: store.Key{Gateway: k.gw, Device: k.mac, Dir: store.DirIn}})
		if err != nil {
			return fmt.Errorf("raw query of %s/%s: %w", k.gw, k.mac, err)
		}
		type acc struct{ count, sum uint64 }
		want := make(map[int64]*acc)
		for _, p := range raw.Points {
			b := p.Ts - p.Ts%width
			if want[b] == nil {
				want[b] = &acc{}
			}
			want[b].count++
			want[b].sum += p.Val
		}
		q := url.Values{"gw": {k.gw}, "device": {k.mac}, "dir": {"in"}, "gran": {"8h"}, "agg": {"sum"}}
		data, _, err := get(c, s.api.url+"/api/v1/series?"+q.Encode())
		if err != nil {
			return err
		}
		var sd query.SeriesData
		if err := json.Unmarshal(data, &sd); err != nil {
			return fmt.Errorf("decoding sampled series: %w", err)
		}
		if len(sd.Bins) != len(want) {
			mismatches++
		}
		for _, b := range sd.Bins {
			bins++
			w := want[b.Start]
			if w == nil || w.count != b.Count || math.Abs(float64(w.sum)-b.Value) > 1e-6*float64(w.sum) {
				mismatches++
			}
		}
	}
	r.res.check("rollup_equals_raw_fold", mismatches == 0 && bins > 0, "%d of %d sampled 8h bins differ from the fold of raw points", mismatches, bins)

	probes := r.sc.probes
	var rollupUs, rawUs []float64
	before := s.db.Stats()
	for i := 0; i < probes; i++ {
		k := s.keys[mix.zipf.Uint64()]
		req := store.QueryRequest{
			Key:  store.Key{Gateway: k.gw, Device: k.mac, Dir: store.Direction(mix.rng.Intn(2))},
			Gran: rollupGrans[mix.rng.Intn(len(rollupGrans))], Agg: rollupAggs[mix.rng.Intn(len(rollupAggs))],
		}
		sp := r.rec.begin("store.query_rollup", -1, int64(i))
		t0 := time.Now()
		if _, err := s.db.Query(ctx, req); err != nil {
			return fmt.Errorf("rollup query: %w", err)
		}
		rollupUs = append(rollupUs, float64(time.Since(t0).Nanoseconds())/1e3)
		r.rec.end(sp)
	}
	mid := s.db.Stats()
	rawDecoded := mid.RawBlockReads - before.RawBlockReads
	r.res.check("rollup_reads_no_raw_block", rawDecoded == 0, "%d rollup queries decoded %d raw blocks", probes, rawDecoded)
	if !r.traced() {
		return nil
	}
	for i := 0; i < probes; i++ {
		k := s.keys[mix.zipf.Uint64()]
		from := s.st.timeOf(mix.rng.Intn(mix.days) * 24 * 60)
		req := store.QueryRequest{
			Key:  store.Key{Gateway: k.gw, Device: k.mac, Dir: store.Direction(mix.rng.Intn(2))},
			From: from, To: from.Add(24 * time.Hour),
		}
		sp := r.rec.begin("store.query_raw24h", -1, int64(i))
		t0 := time.Now()
		if _, err := s.db.Query(ctx, req); err != nil {
			return fmt.Errorf("raw query: %w", err)
		}
		rawUs = append(rawUs, float64(time.Since(t0).Nanoseconds())/1e3)
		r.rec.end(sp)
	}
	after := s.db.Stats()
	n := float64(probes)
	r.res.set("store.query_rollup_p50_us", median(rollupUs), probes)
	r.res.set("store.query_raw24h_p50_us", median(rawUs), probes)
	r.res.set("store.raw_blocks_per_rollup_query", float64(rawDecoded)/n, probes)
	r.res.set("store.rollup_blocks_per_rollup_query", float64(mid.RollupBlockReads-before.RollupBlockReads)/n, probes)
	r.res.set("store.raw_blocks_per_raw_query", float64(after.RawBlockReads-mid.RawBlockReads)/n, probes)
	return nil
}
