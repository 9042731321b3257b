package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrBadRequest marks a malformed QueryRequest (unknown granularity,
// inverted range, negative limit, ...). The serving tier maps it to
// HTTP 400 with errors.Is, so every validation error here wraps it.
var ErrBadRequest = errors.New("store: bad query request")

// Granularity selects the time resolution of a query: raw stored
// minutes, or one of the two precomputed rollup bin widths — 3h (the
// paper's Def. 3 best daily granularity) and 8h (best weekly).
type Granularity uint8

const (
	GranRaw Granularity = iota
	Gran3h
	Gran8h
)

// rollupSlots is the number of precomputed rollup granularities every
// segment carries; rollupGrans maps slot index to granularity.
const rollupSlots = 2

var rollupGrans = [rollupSlots]Granularity{Gran3h, Gran8h}

// seconds returns the bin width (0 for raw).
func (g Granularity) seconds() int64 {
	switch g {
	case Gran3h:
		return 3 * 3600
	case Gran8h:
		return 8 * 3600
	}
	return 0
}

// slot returns the segment rollup slot of g, -1 for raw.
func (g Granularity) slot() int {
	for i, rg := range rollupGrans {
		if rg == g {
			return i
		}
	}
	return -1
}

func (g Granularity) String() string {
	switch g {
	case Gran3h:
		return "3h"
	case Gran8h:
		return "8h"
	}
	return "raw"
}

// ParseGranularity parses the wire vocabulary ("raw" or empty, "3h",
// "8h"). Unknown values wrap ErrBadRequest.
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "", "raw":
		return GranRaw, nil
	case "3h":
		return Gran3h, nil
	case "8h":
		return Gran8h, nil
	}
	return GranRaw, fmt.Errorf("%w: unknown granularity %q (raw, 3h, 8h)", ErrBadRequest, s)
}

// Aggregation selects how the raw counter values inside one bin are
// reduced. Values are the gateways' cumulative byte counters, so
// AggMax yields the end-of-bin counter reading (differences between
// successive bins approximate per-bin traffic), AggSum/AggMean are the
// integral and level of the counter over the bin.
type Aggregation uint8

const (
	AggNone Aggregation = iota
	AggSum
	AggMean
	AggMax
)

func (a Aggregation) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggMean:
		return "mean"
	case AggMax:
		return "max"
	}
	return "none"
}

// ParseAggregation parses the wire vocabulary ("sum", "mean", "max",
// "" for none). Unknown values wrap ErrBadRequest.
func ParseAggregation(s string) (Aggregation, error) {
	switch s {
	case "":
		return AggNone, nil
	case "sum":
		return AggSum, nil
	case "mean":
		return AggMean, nil
	case "max":
		return AggMax, nil
	}
	return AggNone, fmt.Errorf("%w: unknown aggregation %q (sum, mean, max)", ErrBadRequest, s)
}

// RollupBin is one precomputed aggregate bin: the epoch-aligned bin
// start (unix seconds) and the count, wrapping integer sum and max of
// the raw counter values inside [Start, Start+width). Integer sums keep
// bin merging associative, so rollups combined across segments and the
// memtable equal the offline fold over raw points exactly.
type RollupBin struct {
	Start int64
	Count uint64
	Sum   uint64
	Max   uint64
}

// Value reduces the bin under agg. Only the final surfaced value is
// floating point; everything upstream is exact integer arithmetic.
func (b RollupBin) Value(agg Aggregation) float64 {
	switch agg {
	case AggMean:
		if b.Count == 0 {
			return math.NaN()
		}
		return float64(b.Sum) / float64(b.Count)
	case AggMax:
		return float64(b.Max)
	default:
		return float64(b.Sum)
	}
}

// QueryRequest describes one read against the store — the single entry
// point that replaced Select, SelectAll and DeviceSeries.
type QueryRequest struct {
	// Key selects the series (gateway, device MAC, direction).
	Key Key
	// From and To bound the query to [From, To). A zero From defaults
	// to the campaign start (the store's series anchor); a zero To
	// defaults to the campaign end — one step past the highest stored
	// sample — so the whole campaign is expressible without the caller
	// computing minute counts.
	From, To time.Time
	// Gran selects raw points or a rollup bin width. Binned queries are
	// answered from the segments' precomputed rollup blocks and never
	// decode raw minutes; the query range is widened outward to bin
	// boundaries.
	Gran Granularity
	// Agg reduces each bin (binned queries only; defaults to AggSum).
	Agg Aggregation
	// Limit caps the number of returned points/bins/samples (0 means
	// unlimited); Result.Truncated reports whether it bit.
	Limit int
}

// Result is a query answer. Exactly one of Points (raw) or Bins
// (binned) is populated, per the request shape.
type Result struct {
	Key      Key
	From, To time.Time // effective range after defaulting
	Gran     Granularity
	Agg      Aggregation
	// Points holds the raw stored points of a GranRaw query.
	Points []Point
	// Bins holds the merged rollup bins of a binned query, ascending by
	// Start, covering the bin-aligned widening of [From, To). Bins with
	// no observations are absent, not zero.
	Bins []RollupBin
	// Truncated reports that Limit cut the answer short.
	Truncated bool
}

// Query is the unified read entry point: one series, a time range, a
// granularity and an optional aggregation. It merges
// segments (oldest first), the frozen memtable and the active memtable;
// binned queries read only precomputed rollup blocks. ctx is checked
// between block reads, so a canceled request stops touching disk.
func (s *Store) Query(ctx context.Context, req QueryRequest) (*Result, error) {
	if req.Limit < 0 {
		return nil, fmt.Errorf("%w: negative limit %d", ErrBadRequest, req.Limit)
	}
	if req.Gran.seconds() == 0 && req.Gran != GranRaw {
		return nil, fmt.Errorf("%w: unknown granularity %d", ErrBadRequest, req.Gran)
	}
	from, to := req.From, req.To
	if from.IsZero() {
		from = s.cfg.Start
	}
	if to.IsZero() {
		to = s.campaignEnd()
		if to.Before(from) {
			to = from
		}
	}
	if to.Before(from) {
		return nil, fmt.Errorf("%w: range end %s before start %s",
			ErrBadRequest, to.Format(time.RFC3339), from.Format(time.RFC3339))
	}
	res := &Result{Key: req.Key, From: from, To: to, Gran: req.Gran, Agg: req.Agg}
	switch {
	case req.Gran == GranRaw:
		if req.Agg != AggNone {
			return nil, fmt.Errorf("%w: aggregation %s needs a bin granularity (3h or 8h)", ErrBadRequest, req.Agg)
		}
		if err := s.queryRaw(ctx, res, req.Limit); err != nil {
			return nil, err
		}
	default:
		if res.Agg == AggNone {
			res.Agg = AggSum
		}
		if err := s.queryBins(ctx, res, req.Limit); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// queryRaw streams the raw points of [From, To) into res.Points, sized
// once: the overlapping blocks' point counts plus the memtable tail bound
// the answer from above (edge blocks straddle the range).
func (s *Store) queryRaw(ctx context.Context, res *Result, limit int) error {
	it := s.iter(res.Key, res.From.Unix(), res.To.Unix())
	n := len(it.tail)
	for _, sb := range it.blocks {
		n += sb.bm.count
	}
	if limit > 0 && n > limit {
		n = limit
	}
	if n > 0 {
		res.Points = make([]Point, 0, n)
	}
	for it.Next() {
		if limit > 0 && len(res.Points) == limit {
			res.Truncated = true
			return nil
		}
		if len(res.Points)%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		res.Points = append(res.Points, it.At())
	}
	return it.Err()
}

// queryBins answers a binned query from precomputed rollup blocks,
// merging bins across segments and folding in the memtable tail.
// Segment time ranges are disjoint and ascending per series (the
// watermark only moves forward), so the merge is an ordered
// concatenation that coalesces the boundary bin a flush may have split.
func (s *Store) queryBins(ctx context.Context, res *Result, limit int) error {
	binSec := res.Gran.seconds()
	slot := res.Gran.slot()
	fromSec := alignDown(res.From.Unix(), binSec)
	toSec := alignUp(res.To.Unix(), binSec)

	// Under mu: locate the block lists and copy the memtable ranges.
	// Block payloads are read and decoded after mu is released.
	var work []segBlock
	s.mu.Lock()
	for _, seg := range s.segs {
		for _, bm := range seg.rollupBlocksInRange(res.Key, slot, fromSec, toSec) {
			work = append(work, segBlock{seg: seg, bm: bm})
		}
	}
	var tail []Point
	if ser := s.frozen[res.Key]; ser != nil {
		tail = append(tail, rangeOf(ser.pts, fromSec, toSec)...)
	}
	if ser := s.mem[res.Key]; ser != nil {
		tail = append(tail, rangeOf(ser.pts, fromSec, toSec)...)
	}
	s.mu.Unlock()

	var scratch []RollupBin
	var err error
	for _, w := range work {
		if err := ctx.Err(); err != nil {
			return err
		}
		if scratch, err = w.seg.readRollupBlock(w.bm, scratch[:0]); err != nil {
			return err
		}
		for _, b := range scratch {
			if b.Start < fromSec || b.Start >= toSec {
				continue
			}
			res.Bins = mergeBin(res.Bins, b)
		}
	}
	for _, p := range tail {
		res.Bins = mergeBin(res.Bins, binOf(p, binSec))
	}
	if limit > 0 && len(res.Bins) > limit {
		res.Bins = res.Bins[:limit]
		res.Truncated = true
	}
	return nil
}

// binOf is the single-point bin of p.
func binOf(p Point, binSec int64) RollupBin {
	m := p.Ts % binSec
	if m < 0 {
		m += binSec
	}
	return RollupBin{Start: p.Ts - m, Count: 1, Sum: p.Val, Max: p.Val}
}

// mergeBin folds b (whose Start is >= the last accumulated Start —
// inputs arrive in time order) into the bin list, coalescing equal
// starts. Count/Sum addition is the same wrapping integer arithmetic
// computeRollups uses, so merged bins stay exactly equal to the offline
// fold.
func mergeBin(bins []RollupBin, b RollupBin) []RollupBin {
	if n := len(bins); n > 0 && bins[n-1].Start == b.Start {
		last := &bins[n-1]
		last.Count += b.Count
		last.Sum += b.Sum
		if b.Max > last.Max {
			last.Max = b.Max
		}
		return bins
	}
	return append(bins, b)
}

// alignDown floors ts to a bin boundary; alignUp ceils (exclusive-end
// convention: an already-aligned ts is kept).
func alignDown(ts, binSec int64) int64 {
	m := ts % binSec
	if m < 0 {
		m += binSec
	}
	return ts - m
}

func alignUp(ts, binSec int64) int64 {
	if m := alignDown(ts, binSec); m != ts {
		return m + binSec
	}
	return ts
}

// Campaign returns the store's campaign window: the series anchor and
// one step past the highest stored sample (equal times for an empty
// store) — what a zero QueryRequest.From/To defaults to.
func (s *Store) Campaign() (start, end time.Time) {
	return s.cfg.Start, s.campaignEnd()
}

// campaignEnd is the defaulted query end: one step past the highest
// stored sample.
func (s *Store) campaignEnd() time.Time {
	return s.cfg.Start.Add(time.Duration(s.campaignMinutes()) * s.cfg.Step)
}

// Generation returns a value that advances every time the store accepts
// a point: two equal generations bracket identical query answers, which
// is what the serving tier's cache keys on. (Flushes and compactions
// reorganize storage but never change answers, so they do not advance
// it.)
func (s *Store) Generation() int64 {
	return s.cfg.Metrics.Points.Value()
}
