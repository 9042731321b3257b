// Package store implements homestore, homesight's embedded on-disk
// time-series store. It persists the per-minute cumulative byte
// counters of the telemetry pipeline — the paper's ~20M-report corpus
// shape — keyed by (gateway, device MAC, direction), with:
//
//   - a length-prefixed, CRC32-C-checksummed write-ahead log with a
//     configurable fsync policy and truncate-on-torn-tail crash
//     recovery (wal.go);
//   - immutable, sorted segment files produced by background memtable
//     flushes, using delta-of-delta timestamp + zigzag-varint value
//     block encoding and a checksummed footer index for O(log n)
//     range seeks (codec.go, segment.go);
//   - an Append/Query API that merges memtable, WAL tail and segments
//     into one ordered, deduplicated stream of raw points or rollup
//     bins, and Home, which reconstructs a home's per-minute delta
//     series from its counters (home.go);
//   - registry-backed homesight_store_* metrics (metrics.go).
//
// Layout of a store directory (see STORAGE.md for the full diagram):
//
//	meta.json      series anchor (start, step) — written once
//	names.json     gateway -> MAC -> device name catalog
//	wal-XXXXXXXX.wal   write-ahead log, one active + flushed leftovers
//	seg-XXXXXXXX.seg   immutable segments, ascending time per series
//
// Durability contract: a report is recoverable once Append returns and
// the WAL has been fsynced (immediately under SyncAlways, within
// 100 ms under SyncInterval, at Close under SyncNever). Recovery
// replays every intact WAL record through the same watermark-dedup
// path as live appends, so replaying a WAL whose segment already
// landed — the crash window between flush and WAL deletion — yields
// zero duplicates.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/obs"
)

// ErrClosed is returned by operations on a closed (or crashed) store.
var ErrClosed = errors.New("store: closed")

// ErrNoGateway is returned by Append for a report without a gateway id:
// the report is refused, the store is unharmed.
var ErrNoGateway = errors.New("store: report without gateway id")

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs at most once per syncEvery
	// from a background ticker: group commit. A power
	// cut loses at most the last interval; a process kill loses nothing
	// past the last buffer flush.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every Append — the zero-loss setting the
	// crash-parity tests run under.
	SyncAlways
	// SyncNever leaves syncing to Close and the OS.
	SyncNever
)

// Config configures Open. The zero value of every field is usable.
type Config struct {
	// Dir is the store directory, created if missing.
	Dir string
	// Start and Step anchor the minute grid that Home and
	// ReconstructReports read on (defaults: 2014-03-17 UTC, one minute — the synth deployment
	// anchor). A store directory remembers its anchor in meta.json; an
	// existing anchor wins over the config.
	Start time.Time
	Step  time.Duration
	// Sync is the WAL fsync policy.
	Sync SyncPolicy
	// FlushPoints triggers a background flush once the active memtable
	// holds this many points (default 1<<19). BlockPoints is the
	// segment block size (default 1024).
	FlushPoints int
	BlockPoints int
	// Metrics receives the store's instruments, and Stats reads its
	// counts from them; nil gets a private registry (counting stays on,
	// nothing is exported).
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = time.Date(2014, time.March, 17, 0, 0, 0, 0, time.UTC)
	}
	c.Start = c.Start.UTC()
	if c.Step <= 0 {
		c.Step = time.Minute
	}
	if c.FlushPoints <= 0 {
		c.FlushPoints = 1 << 19
	}
	if c.BlockPoints <= 0 {
		c.BlockPoints = 1024
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.NewRegistry())
	}
	return c
}

// memSeries is one series' unflushed points, strictly ascending.
type memSeries struct {
	pts []Point
}

// series is the append cursor of one (gateway, device, direction) key:
// its high-water timestamp — the only copy; Watermarks, Stats and the
// campaign end read it here — and its slot in the active memtable.
type series struct {
	// wm is the high-water timestamp, meaningful once seen is set (zero
	// is a valid timestamp).
	wm   int64
	seen bool
	// mem is the series' entry in the active memtable, nil until its
	// first point since the last rotation: rotateLocked clears every
	// cached pointer when it swaps the memtable.
	mem *memSeries
}

// device is one catalog entry — a device's recorded name and its two
// directions' cursors — reached with one lookup per device per report.
type device struct {
	name string
	dirs [2]series
}

// deviceSet is one gateway's part of the catalog: its devices by MAC,
// and last, which resolves a report's rows by their slot in the
// gateway's previous report before falling back on byMAC.
type deviceSet struct {
	byMAC map[string]*device
	last  gateway.Slots[*device]
}

// storeMeta is the meta.json payload.
type storeMeta struct {
	Start time.Time `json:"start"`
	Step  int64     `json:"step_seconds"`
}

// Stats is a point-in-time snapshot of the store. Reports, Points,
// DupPoints and WALTruncations read the homesight_store_* counters.
type Stats struct {
	Reports        int64   // reports accepted by Append
	Points         int64   // points written to the memtable
	DupPoints      int64   // points dropped by the watermark
	Series         int     // distinct (gateway, device, direction) keys
	Segments       int     // live segment files
	SegmentBytes   int64   // their total size
	SegmentPoints  int64   // points stored in segments
	MemPoints      int     // points in the active + frozen memtables
	WALBytes       int64   // bytes written to the active WAL
	WALRecords     int     // records replayed at Open
	WALTruncations int     // torn tails truncated at Open
	Compression    float64 // raw bytes (16/point) over encoded segment bytes

	// RawBlockReads and RollupBlockReads count segment block decodes by
	// kind since Open — how the query benchmark proves a downsampled
	// query never touched raw minute blocks.
	RawBlockReads    int64
	RollupBlockReads int64
}

// Store is an open homestore directory. All methods are safe for
// concurrent use.
type Store struct {
	cfg Config
	// now is the clock behind the fsync-duration metric, the store's
	// only wall-clock read; no encoded byte depends on it.
	now func() time.Time

	mu        sync.Mutex
	closed    bool
	wal       *walWriter
	walSeq    uint64   // active WAL sequence number
	walSeqs   []uint64 // every WAL file on disk, ascending (active last)
	mem       map[Key]*memSeries
	memPoints int
	frozen    map[Key]*memSeries // memtable being flushed, nil when idle
	frozenWAL []uint64           // WAL files the frozen memtable covers
	// catalog is gateway → MAC → device: every known device's name and
	// per-direction cursors. numSeries counts the cursors with a watermark.
	catalog   map[string]*deviceSet
	numSeries int
	segs      []*segment
	nextSeg   uint64
	scratch   []byte        // WAL record encode buffer, reused under mu
	reads     *readCounters // raw-vs-rollup block decode accounting, shared by all segments

	walRecords int

	// campaign memoises campaignMinutes on the Generation it was computed
	// at: watermarks only move when Generation does.
	campaign struct {
		valid   bool
		gen     int64
		minutes int
	}

	flushMu  sync.Mutex // serializes segment production
	flushCh  chan struct{}
	stopCh   chan struct{}
	wg       sync.WaitGroup
	flushErr error // sticky first background-flush failure, under mu
}

// Open opens (creating if needed) the store directory and recovers its
// state: temp files of interrupted writes are deleted, segments are
// indexed, WAL files replayed in order through the watermark-dedup path,
// torn tails truncated.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:     cfg,
		now:     time.Now,
		mem:     make(map[Key]*memSeries),
		catalog: make(map[string]*deviceSet),
		flushCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		nextSeg: 1,
		reads: &readCounters{
			raw:    cfg.Metrics.BlockReads.With("raw"),
			rollup: cfg.Metrics.BlockReads.With("rollup"),
		},
	}
	if err := s.removeTemps(); err != nil {
		return nil, err
	}
	if err := s.loadMeta(); err != nil {
		return nil, err
	}
	if err := s.loadNames(); err != nil {
		return nil, err
	}
	if err := s.openSegments(); err != nil {
		return nil, err
	}
	if err := s.replayWALs(); err != nil {
		s.closeSegments()
		return nil, err
	}
	if len(s.walSeqs) == 0 {
		s.walSeqs = []uint64{1}
	}
	s.walSeq = s.walSeqs[len(s.walSeqs)-1]
	w, err := newWALWriter(s.walPath(s.walSeq))
	if err != nil {
		s.closeSegments()
		return nil, err
	}
	s.wal = w
	s.refreshGauges()
	s.cfg.Metrics.MemPoints.Set(float64(s.memPoints))

	s.wg.Add(1)
	go s.flusher()
	if s.cfg.Sync == SyncInterval {
		s.wg.Add(1)
		go s.syncer()
	}
	return s, nil
}

func (s *Store) walPath(seq uint64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("wal-%08d.wal", seq))
}

func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("seg-%08d.seg", seq))
}

// metaFile names the anchor file every partition has from its first open.
const metaFile = "meta.json"

// CheckPartition reports an error naming dir unless it holds an existing
// partition. Open creates one where there is none, so a reader calls
// this first: pointed at a wrong path, it fails instead of leaving an
// empty partition there.
func CheckPartition(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, metaFile)); err != nil {
		return fmt.Errorf("store: %s holds no partition: %w", dir, err)
	}
	return nil
}

// loadMeta reads meta.json, writing it from the config on first open.
// A stored anchor wins: series indices must stay stable across opens.
func (s *Store) loadMeta() error {
	path := filepath.Join(s.cfg.Dir, metaFile)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		raw, err = json.Marshal(storeMeta{Start: s.cfg.Start, Step: int64(s.cfg.Step / time.Second)})
		if err != nil {
			return err
		}
		return writeFileAtomic(path, func(w *bufio.Writer) error {
			_, err := w.Write(raw)
			return err
		})
	}
	if err != nil {
		return err
	}
	var m storeMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	if m.Step <= 0 || m.Start.IsZero() {
		return fmt.Errorf("store: %s: invalid anchor (start %v, step %ds)", path, m.Start, m.Step)
	}
	s.cfg.Start = m.Start.UTC()
	s.cfg.Step = time.Duration(m.Step) * time.Second
	return nil
}

func (s *Store) loadNames() error {
	raw, err := os.ReadFile(filepath.Join(s.cfg.Dir, "names.json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var names map[string]map[string]string
	if err := json.Unmarshal(raw, &names); err != nil {
		return fmt.Errorf("store: names.json: %w", err)
	}
	for gw, devs := range names {
		for mac, name := range devs {
			s.devicesOf(gw).get(mac).name = name
		}
	}
	return nil
}

// devicesOf returns (creating if needed) one gateway's part of the
// catalog. Caller holds mu (or owns the store, at Open).
func (s *Store) devicesOf(gatewayID string) *deviceSet {
	devs := s.catalog[gatewayID]
	if devs == nil {
		devs = &deviceSet{byMAC: make(map[string]*device)}
		s.catalog[gatewayID] = devs
	}
	return devs
}

// get returns (creating if needed) a device's catalog entry.
func (ds *deviceSet) get(mac string) *device {
	dev := ds.byMAC[mac]
	if dev == nil {
		dev = &device{}
		ds.byMAC[mac] = dev
	}
	return dev
}

// device returns a device's catalog entry, nil if it has none. Caller
// holds mu.
func (s *Store) device(gatewayID, mac string) *device {
	if devs := s.catalog[gatewayID]; devs != nil {
		return devs.byMAC[mac]
	}
	return nil
}

// eachWatermark calls fn for every series that has a watermark. Caller
// holds mu.
func (s *Store) eachWatermark(fn func(k Key, ts int64)) {
	for gw, devs := range s.catalog {
		for mac, dev := range devs.byMAC {
			for dir := range dev.dirs {
				if sr := &dev.dirs[dir]; sr.seen {
					fn(Key{Gateway: gw, Device: mac, Dir: Direction(dir)}, sr.wm)
				}
			}
		}
	}
}

// advance moves a series' watermark to ts.
func (s *Store) advance(sr *series, ts int64) {
	if !sr.seen {
		sr.seen = true
		s.numSeries++
	}
	sr.wm = ts
}

// saveNames persists the name catalog; called with flushMu held (never
// on the append hot path).
func (s *Store) saveNames() error {
	s.mu.Lock()
	names := make(map[string]map[string]string, len(s.catalog))
	for gw, devs := range s.catalog {
		names[gw] = make(map[string]string, len(devs.byMAC))
		for mac, dev := range devs.byMAC {
			names[gw][mac] = dev.name
		}
	}
	s.mu.Unlock()
	raw, err := json.MarshalIndent(names, "", "  ")
	if err != nil {
		return err
	}
	// Replaced, never rewritten in place: a crash mid-write must leave
	// the previous catalog readable.
	return writeFileAtomic(filepath.Join(s.cfg.Dir, "names.json"), func(w *bufio.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// removeTemps deletes the temp files of atomic writes a crash cut short.
// Their targets were never renamed into place, so the store does not
// need them, and a temp segment could be as large as the store.
func (s *Store) removeTemps() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			if err := os.Remove(filepath.Join(s.cfg.Dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanSeq lists the ascending sequence numbers of the files named
// exactly prefix+"%08d"+suffix in the store directory: a temp file
// such as seg-00000099.seg.tmp is not a segment.
func (s *Store) scanSeq(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		rest, hasPrefix := strings.CutPrefix(e.Name(), prefix)
		digits, hasSuffix := strings.CutSuffix(rest, suffix)
		if !hasPrefix || !hasSuffix {
			continue
		}
		seq, err := strconv.ParseUint(digits, 10, 64)
		if err == nil && fmt.Sprintf("%08d", seq) == digits {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (s *Store) openSegments() error {
	seqs, err := s.scanSeq("seg-", ".seg")
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		seg, err := openSegment(s.segPath(seq), seq, s.reads)
		if err != nil {
			s.closeSegments()
			return err
		}
		s.segs = append(s.segs, seg)
		s.nextSeg = seq + 1
		for _, ss := range seg.series {
			sr := &s.devicesOf(ss.key.Gateway).get(ss.key.Device).dirs[ss.key.Dir]
			if last := ss.blocks[len(ss.blocks)-1].maxTs; !sr.seen || last > sr.wm {
				s.advance(sr, last)
			}
		}
	}
	return nil
}

func (s *Store) closeSegments() {
	for _, seg := range s.segs {
		_ = seg.close()
	}
	s.segs = nil
}

// replayWALs replays every WAL file in sequence order through the same
// ingest path as live appends. Watermarks seeded from the segments make
// the replay idempotent against records whose segment already landed.
func (s *Store) replayWALs() error {
	seqs, err := s.scanSeq("wal-", ".wal")
	if err != nil {
		return err
	}
	dec := gateway.NewReportDecoder()
	var points, dups int64
	for _, seq := range seqs {
		res, err := replayWAL(s.walPath(seq), func(payload []byte) error {
			dec.Reset()
			rep, err := decodeRecord(dec, payload)
			if err != nil {
				return err
			}
			p, d := s.ingest(&rep)
			points, dups = points+p, dups+d
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: replaying %s: %w", s.walPath(seq), err)
		}
		s.walRecords += res.records
		if res.truncated {
			s.cfg.Metrics.WALTruncations.Inc()
		}
	}
	s.walSeqs = seqs
	s.cfg.Metrics.Appends.Add(int64(s.walRecords))
	s.cfg.Metrics.Points.Add(points)
	s.cfg.Metrics.DupPoints.Add(dups)
	return nil
}

// ingest applies one report to the memtable: the shared path of live
// appends and WAL replay. The gateway is resolved once per report and
// each device to the catalog entry that carries both directions' cursors,
// through its slot in the gateway's previous report, so the steady state
// is one map lookup per report; only a device that joined or moved goes
// to the MAC map, and only a series' first point after a rotation touches
// the keyed memtable map. It returns the points written and dropped;
// its callers move the metrics. Caller holds mu (or owns the store, at
// Open).
func (s *Store) ingest(rep *gateway.Report) (points, dups int64) {
	ts := rep.Timestamp.Unix()
	var devs *deviceSet
	if len(rep.Devices) > 0 { // a report without devices does not register its gateway
		devs = s.devicesOf(rep.GatewayID)
	}
	for i := range rep.Devices {
		dc := &rep.Devices[i]
		dev, ok := devs.last.Get(i, dc.MAC)
		if !ok {
			dev = devs.get(dc.MAC)
			devs.last.Set(i, dc.MAC, dev)
		}
		if dc.Name != "" && dc.Name != dev.name {
			dev.name = dc.Name
		}
		for dir, val := range [2]uint64{dc.RxBytes, dc.TxBytes} {
			sr := &dev.dirs[dir]
			if sr.seen && ts <= sr.wm {
				dups++
				continue
			}
			if sr.mem == nil {
				sr.mem = &memSeries{}
				s.mem[Key{Gateway: rep.GatewayID, Device: dc.MAC, Dir: Direction(dir)}] = sr.mem
			}
			sr.mem.pts = append(sr.mem.pts, Point{Ts: ts, Val: val})
			s.advance(sr, ts)
			points++
		}
	}
	s.memPoints += int(points)
	return points, dups
}

// Append durably records one report. Points at or before a series'
// high-water timestamp are dropped (counted as duplicates), which makes
// Append idempotent under at-least-once delivery. The report is written
// to the WAL before the memtable; with SyncAlways it is on disk when
// Append returns.
func (s *Store) Append(rep gateway.Report) error {
	if rep.GatewayID == "" {
		return ErrNoGateway
	}
	one := [1]gateway.Report{rep}
	_, err := s.AppendBatch(one[:])
	return err
}

// AppendBatch records a frame of reports as Append records each, in
// order, under one lock: one WAL write of one record per report, and
// under SyncAlways one fsync, before any of them reaches the memtable.
// Reports without a gateway id are skipped and counted in skipped. An
// error means the store itself failed — closed, a sticky flush error, a
// WAL write or fsync — and no report of the frame reached the memtable.
func (s *Store) AppendBatch(reps []gateway.Report) (skipped int, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if err := s.flushErr; err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("store: background flush failed: %w", err)
	}
	buf := s.scratch[:0]
	for i := range reps {
		if reps[i].GatewayID == "" {
			skipped++
			continue
		}
		buf = appendRecord(buf, &reps[i])
	}
	s.scratch = buf
	if err := s.wal.write(buf); err != nil {
		s.mu.Unlock()
		return skipped, err
	}
	if s.cfg.Sync == SyncAlways {
		t0 := s.now()
		// WAL fsync under mu is the durability contract: AppendBatch may not
		// return before its records are on disk, and mu orders the WAL.
		if err := s.wal.sync(); err != nil {
			s.mu.Unlock()
			return skipped, err
		}
		s.cfg.Metrics.FsyncSeconds.Observe(s.now().Sub(t0).Seconds())
	}
	var points, dups int64
	for i := range reps {
		if reps[i].GatewayID != "" {
			p, d := s.ingest(&reps[i])
			points, dups = points+p, dups+d
		}
	}
	s.cfg.Metrics.Appends.Add(int64(len(reps) - skipped))
	s.cfg.Metrics.Points.Add(points)
	s.cfg.Metrics.DupPoints.Add(dups)
	s.cfg.Metrics.MemPoints.Set(float64(s.memPoints))
	var rotated bool
	if s.memPoints >= s.cfg.FlushPoints && s.frozen == nil {
		// Rotation syncs and swaps the WAL and must be atomic with the memtable
		// freeze mu guards.
		rotated, err = s.rotateLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return skipped, err
	}
	if rotated {
		select {
		case s.flushCh <- struct{}{}:
		default:
		}
	}
	return skipped, nil
}

// rotateLocked freezes the active memtable and opens a fresh WAL; the
// frozen state is flushed to a segment by the flusher. Caller holds mu.
func (s *Store) rotateLocked() (bool, error) {
	if s.memPoints == 0 || s.frozen != nil {
		return false, nil
	}
	if err := s.wal.sync(); err != nil {
		return false, err
	}
	next := s.walSeq + 1
	w, err := newWALWriter(s.walPath(next))
	if err != nil {
		return false, err
	}
	if err := s.wal.close(); err != nil {
		w.abandon()
		return false, err
	}
	s.frozen = s.mem
	s.frozenWAL = s.walSeqs
	s.mem = make(map[Key]*memSeries)
	for _, devs := range s.catalog {
		for _, dev := range devs.byMAC {
			dev.dirs[0].mem, dev.dirs[1].mem = nil, nil
		}
	}
	s.memPoints = 0
	s.wal = w
	s.walSeq = next
	s.walSeqs = []uint64{next}
	return true, nil
}

// flusher drains flush signals in the background.
func (s *Store) flusher() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.flushCh:
			if err := s.doFlush(); err != nil {
				s.mu.Lock()
				if s.flushErr == nil {
					s.flushErr = err
				}
				s.mu.Unlock()
			}
		}
	}
}

// syncEvery is the group-commit interval under SyncInterval.
const syncEvery = 100 * time.Millisecond

// syncer is the SyncInterval group-commit loop.
func (s *Store) syncer() {
	defer s.wg.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			t0 := s.now()
			// Group-commit fsync under mu: the appends batched behind this sync are
			// exactly the group being committed.
			err := s.wal.sync()
			if err == nil {
				s.cfg.Metrics.FsyncSeconds.Observe(s.now().Sub(t0).Seconds())
			}
			s.mu.Unlock()
		}
	}
}

// doFlush writes the frozen memtable to one immutable segment, installs
// it and deletes the WAL files it covers. flushMu serializes producers.
func (s *Store) doFlush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	frozen := s.frozen
	frozenWAL := s.frozenWAL
	seq := s.nextSeg
	s.mu.Unlock()
	if frozen == nil {
		return nil
	}

	keys := make([]Key, 0, len(frozen))
	for k := range frozen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	path := s.segPath(seq)
	// flushMu serializes segment production I/O; s.mu, the hot lock, is not held here.
	err := writeSegmentFile(path, s.cfg.BlockPoints, func(put func(Key, []Point) error) error {
		for _, k := range keys {
			if err := put(k, frozen[k].pts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	seg, err := openSegment(path, seq, s.reads)
	if err != nil {
		return err
	}

	s.mu.Lock()
	s.segs = append(s.segs, seg)
	s.nextSeg = seq + 1
	s.frozen = nil
	s.frozenWAL = nil
	s.refreshGauges()
	s.cfg.Metrics.Flushes.Inc()
	s.mu.Unlock()

	if err := s.saveNames(); err != nil {
		return err
	}
	// The segment is durable; its WAL files are now redundant. A crash
	// before this point replays them into watermark-dropped duplicates.
	for _, wseq := range frozenWAL {
		if err := os.Remove(s.walPath(wseq)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// refreshGauges recomputes the segment-set gauges. Caller holds mu.
func (s *Store) refreshGauges() {
	var bytes, dataBytes, points int64
	for _, seg := range s.segs {
		bytes += seg.size
		dataBytes += seg.dataBytes
		points += seg.points
	}
	s.cfg.Metrics.Segments.Set(float64(len(s.segs)))
	s.cfg.Metrics.SegmentBytes.Set(float64(bytes))
	if dataBytes > 0 {
		s.cfg.Metrics.Compression.Set(float64(points*16) / float64(dataBytes))
	}
}

// Flush synchronously persists everything buffered so far: the frozen
// memtable (if a background flush is pending) and then the active one.
func (s *Store) Flush() error {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		if err := s.flushErr; err != nil {
			s.mu.Unlock()
			return fmt.Errorf("store: background flush failed: %w", err)
		}
		if s.frozen == nil {
			if s.memPoints == 0 {
				s.mu.Unlock()
				return nil
			}
			// Rotation must be atomic with the memtable freeze mu guards.
			if _, err := s.rotateLocked(); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
		if err := s.doFlush(); err != nil {
			return err
		}
	}
}

// Close stops the background goroutines, syncs and closes the WAL and
// releases segment handles. The memtable is NOT flushed to a segment:
// its WAL survives, and the next Open replays it — the recovery path is
// also the shutdown path, so it is exercised constantly.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
	// Drain a flush signaled but not yet picked up.
	if err := s.doFlushIfFrozen(); err != nil {
		return err
	}
	err := s.wal.close()
	for _, seg := range s.segs {
		if cerr := seg.close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = s.flushErr
	}
	return err
}

func (s *Store) doFlushIfFrozen() error {
	s.mu.Lock()
	frozen := s.frozen != nil
	s.mu.Unlock()
	if !frozen {
		return nil
	}
	return s.doFlush()
}

// Crash abandons the store without flushing buffers or syncing — the
// fault-drill API: everything not yet fsynced is lost exactly as a
// killed process would lose it. The directory can be reopened.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
	s.wal.abandon()
	for _, seg := range s.segs {
		_ = seg.close()
	}
}

// Watermarks returns a copy of every series' high-water timestamp (unix
// seconds): the same per-series cursor the WAL replay and Append use to
// drop duplicate points. Because recovery rebuilds these from segments
// and WALs, two partitions holding overlapping history agree on what
// has been durably absorbed — internal/fleet relies on this to make
// shard handoff idempotent (replayed reports that already landed are
// dropped by the receiver's watermark, not double-counted).
func (s *Store) Watermarks() map[Key]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Key]int64, s.numSeries)
	s.eachWatermark(func(k Key, ts int64) { out[k] = ts })
	return out
}

// Stats returns a snapshot of the store's counters and layout.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Reports:          s.cfg.Metrics.Appends.Value(),
		Points:           s.cfg.Metrics.Points.Value(),
		DupPoints:        s.cfg.Metrics.DupPoints.Value(),
		Series:           s.numSeries,
		Segments:         len(s.segs),
		MemPoints:        s.memPoints,
		WALRecords:       s.walRecords,
		WALTruncations:   int(s.cfg.Metrics.WALTruncations.Value()),
		RawBlockReads:    s.reads.raw.Value(),
		RollupBlockReads: s.reads.rollup.Value(),
	}
	if s.wal != nil {
		st.WALBytes = s.wal.bytes
	}
	var dataBytes int64
	for _, seg := range s.segs {
		st.SegmentBytes += seg.size
		st.SegmentPoints += seg.points
		dataBytes += seg.dataBytes
	}
	for _, ser := range s.frozen {
		st.MemPoints += len(ser.pts)
	}
	if dataBytes > 0 {
		st.Compression = float64(st.SegmentPoints*16) / float64(dataBytes)
	}
	return st
}

// SegmentInfo describes one immutable segment — the inspection view
// `homesight store inspect` renders.
type SegmentInfo struct {
	Path   string `json:"path"`
	Seq    uint64 `json:"seq"`
	Bytes  int64  `json:"bytes"`
	Series int    `json:"series"`
	Points int64  `json:"points"`
	MinTs  int64  `json:"min_ts"` // unix seconds; 0 when the segment is empty
	MaxTs  int64  `json:"max_ts"`
}

// SegmentInfos returns a snapshot of the installed segments in sequence
// order.
func (s *Store) SegmentInfos() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.segs))
	for _, seg := range s.segs {
		si := SegmentInfo{
			Path:   seg.path,
			Seq:    seg.seq,
			Bytes:  seg.size,
			Series: len(seg.series),
			Points: seg.points,
		}
		for _, ser := range seg.series {
			for _, bm := range ser.blocks {
				if si.MinTs == 0 || bm.minTs < si.MinTs {
					si.MinTs = bm.minTs
				}
				if bm.maxTs > si.MaxTs {
					si.MaxTs = bm.maxTs
				}
			}
		}
		out = append(out, si)
	}
	return out
}

// Gateways returns the known gateway IDs, sorted.
func (s *Store) Gateways() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.catalog))
	for gw := range s.catalog {
		out = append(out, gw)
	}
	sort.Strings(out)
	return out
}

// Devices returns a gateway's known device MACs, sorted.
func (s *Store) Devices(gatewayID string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var byMAC map[string]*device
	if devs := s.catalog[gatewayID]; devs != nil {
		byMAC = devs.byMAC
	}
	out := make([]string, 0, len(byMAC))
	for mac := range byMAC {
		out = append(out, mac)
	}
	sort.Strings(out)
	return out
}

// HasDevice reports whether mac is in gatewayID's catalog.
func (s *Store) HasDevice(gatewayID, mac string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.device(gatewayID, mac) != nil
}

// HomeVersion returns a value that advances every time the store accepts
// a point for gatewayID, and whether the gateway is catalogued at all: the
// per-home counterpart of Generation, and what the serving tier keys one
// home's cached answers on so that traffic for other homes leaves them
// alone. It is Σ (watermark + 1) over the home's series: an accepted point
// either raises one watermark or adds a series, so the sum (of unix
// seconds, which are not negative) is strictly monotone and equal versions
// bracket identical stored points for that home. (A rename carried by a
// report whose points are all duplicates moves neither this nor
// Generation.) O(devices of the home).
func (s *Store) HomeVersion(gatewayID string) (v int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	devs, ok := s.catalog[gatewayID]
	if !ok {
		return 0, false
	}
	for _, dev := range devs.byMAC {
		for dir := range dev.dirs {
			if sr := &dev.dirs[dir]; sr.seen {
				v += sr.wm + 1
			}
		}
	}
	return v, ok
}

// DeviceName returns the recorded name for a device ("" if none).
func (s *Store) DeviceName(gatewayID, mac string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dev := s.device(gatewayID, mac); dev != nil {
		return dev.name
	}
	return ""
}

// Start and Step expose the store's series anchor.
func (s *Store) Start() time.Time    { return s.cfg.Start }
func (s *Store) Step() time.Duration { return s.cfg.Step }

// iterator streams the points of one series in ascending timestamp
// order. Next advances; At is valid until the next call to Next; Err
// reports the first failure (a failed Next may mean exhaustion or
// error — check Err).
type iterator struct {
	fromSec, toSec int64
	blocks         []segBlock
	tail           []Point
	buf            []Point
	i              int
	lastTs         int64
	started        bool
	cur            Point
	err            error
}

type segBlock struct {
	seg *segment
	bm  blockMeta
}

// Next advances to the next point, reporting false at the end of the
// stream or on error.
func (it *iterator) Next() bool {
	for {
		for it.i < len(it.buf) {
			p := it.buf[it.i]
			it.i++
			if p.Ts < it.fromSec || (it.started && p.Ts <= it.lastTs) {
				continue
			}
			if p.Ts >= it.toSec {
				it.blocks = nil
				it.tail = nil
				it.buf = nil
				return false
			}
			it.cur = p
			it.lastTs = p.Ts
			it.started = true
			return true
		}
		switch {
		case len(it.blocks) > 0:
			sb := it.blocks[0]
			it.blocks = it.blocks[1:]
			pts, _, err := sb.seg.readBlock(sb.bm, it.buf[:0], nil)
			if err != nil {
				it.err = err
				return false
			}
			it.buf = pts
			it.i = 0
		case it.tail != nil:
			it.buf = it.tail
			it.tail = nil
			it.i = 0
		default:
			return false
		}
	}
}

// At returns the current point.
func (it *iterator) At() Point { return it.cur }

// Err returns the first error encountered.
func (it *iterator) Err() error { return it.err }

// iter is the merged-read core behind Query: segments
// (oldest first), then the frozen memtable, then the active one.
// Per-series time ranges across those layers are disjoint by
// construction (the watermark only moves forward), so the merge is an
// ordered concatenation with a dedup guard.
func (s *Store) iter(key Key, fromSec, toSec int64) *iterator {
	it := &iterator{fromSec: fromSec, toSec: toSec}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		for _, bm := range seg.blocksInRange(key, it.fromSec, it.toSec) {
			it.blocks = append(it.blocks, segBlock{seg: seg, bm: bm})
		}
	}
	var tail []Point
	if ser := s.frozen[key]; ser != nil {
		tail = append(tail, rangeOf(ser.pts, it.fromSec, it.toSec)...)
	}
	if ser := s.mem[key]; ser != nil {
		tail = append(tail, rangeOf(ser.pts, it.fromSec, it.toSec)...)
	}
	it.tail = tail
	return it
}

// rangeOf binary-searches the sub-slice of pts with Ts in [fromSec,
// toSec). pts is ascending.
func rangeOf(pts []Point, fromSec, toSec int64) []Point {
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].Ts >= fromSec })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].Ts >= toSec })
	return pts[lo:hi]
}

// Compact flushes the memtable and rewrites all segments into one,
// reclaiming per-segment overhead and re-blocking short runs. It streams
// one series at a time, so its memory is one series plus the block
// metas, not the store. The store stays readable throughout; writes are
// blocked only for the final swap.
func (s *Store) Compact() error {
	if err := s.Flush(); err != nil {
		return err
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	old := append([]*segment(nil), s.segs...)
	seq := s.nextSeg
	s.mu.Unlock()
	if len(old) <= 1 {
		return nil
	}

	path := s.segPath(seq)
	// Compaction reads and writes under flushMu; readers use s.mu and
	// stay unblocked. A failure leaves the old segments installed.
	err := writeSegmentFile(path, s.cfg.BlockPoints, func(put func(Key, []Point) error) error {
		return mergeSegments(old, put)
	})
	if err != nil {
		return err
	}
	seg, err := openSegment(path, seq, s.reads)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.segs = []*segment{seg}
	s.nextSeg = seq + 1
	s.refreshGauges()
	s.mu.Unlock()
	for _, o := range old {
		// Replaced segments are retired under flushMu; s.mu is not held.
		_ = o.close()
		if err := os.Remove(o.path); err != nil {
			return err
		}
	}
	return nil
}

// Verify re-reads every block of every segment, checking checksums,
// decode round-trips, index consistency, intra-block ordering and
// cross-segment time-disjointness per series.
func (s *Store) Verify() error {
	s.mu.Lock()
	segs := append([]*segment(nil), s.segs...)
	s.mu.Unlock()
	last := make(map[Key]int64)
	seen := make(map[Key]bool)
	for _, seg := range segs {
		if err := seg.verify(); err != nil {
			return err
		}
		for _, ss := range seg.series {
			minTs := ss.blocks[0].minTs
			if seen[ss.key] && minTs <= last[ss.key] {
				return fmt.Errorf("store: segment %s: %v overlaps an older segment (min %d <= %d)",
					seg.path, ss.key, minTs, last[ss.key])
			}
			seen[ss.key] = true
			last[ss.key] = ss.blocks[len(ss.blocks)-1].maxTs
		}
	}
	return nil
}
