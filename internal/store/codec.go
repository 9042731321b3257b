package store

import (
	"encoding/binary"
	"fmt"
)

// Point is one sample of a series: a timestamp (Unix seconds — reports
// arrive on a minute grid, so sub-second precision buys nothing) and the
// raw cumulative counter value as reported by the gateway. The store
// keeps counters, not deltas: differencing (and counter-wrap handling)
// happens at read time through gateway.Meter, exactly as the live
// telemetry path does.
type Point struct {
	Ts  int64
	Val uint64
}

// maxBlockPoints bounds the declared point count of one block. Blocks
// are written with at most Config.BlockPoints (default 1024) points, so
// anything past this is a corrupt or adversarial header, rejected before
// allocation.
const maxBlockPoints = 1 << 20

// encodeBlock appends the block encoding of pts to dst and returns the
// extended slice. Layout, all varints:
//
//	uvarint  count
//	varint   ts[0]            (zigzag)
//	uvarint  val[0]
//	varint   tsDelta[1]       (zigzag: ts[1]-ts[0])
//	varint   valDelta[1]      (zigzag, wrapping: val[1]-val[0])
//	then per point i >= 2:
//	varint   tsDoD[i]         (zigzag: tsDelta[i]-tsDelta[i-1])
//	varint   valDoD[i]        (zigzag: valDelta[i]-valDelta[i-1])
//
// Delta-of-delta exploits the workload's shape twice over: the minute
// cadence makes timestamp DoDs almost always zero (one byte), and the
// cumulative counters of a device with steady traffic have near-constant
// deltas, so their DoDs are tiny too. All arithmetic wraps, so any
// int64/uint64 input round-trips exactly.
func encodeBlock(dst []byte, pts []Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	if len(pts) == 0 {
		return dst
	}
	dst = binary.AppendVarint(dst, pts[0].Ts)
	dst = binary.AppendUvarint(dst, pts[0].Val)
	var prevTsD int64
	var prevValD int64
	for i := 1; i < len(pts); i++ {
		tsD := pts[i].Ts - pts[i-1].Ts
		valD := int64(pts[i].Val - pts[i-1].Val) // wrapping
		if i == 1 {
			dst = binary.AppendVarint(dst, tsD)
			dst = binary.AppendVarint(dst, valD)
		} else {
			dst = binary.AppendVarint(dst, tsD-prevTsD)
			dst = binary.AppendVarint(dst, valD-prevValD)
		}
		prevTsD, prevValD = tsD, valD
	}
	return dst
}

// encodeRollupBlock appends the rollup-block encoding of bins to dst.
// Bins are strictly ascending by Start. Layout, all varints:
//
//	uvarint  count
//	varint   start[0]          (zigzag; bin starts are epoch-aligned)
//	then per bin i >= 1:
//	uvarint  start[i]-start[i-1]
//	then per bin (interleaved with the starts above):
//	uvarint  pointCount
//	uvarint  sum               (wrapping uint64 sum of raw values)
//	uvarint  max
//
// Sums are wrapping integer sums, not floats: integer addition is
// associative, so rollups merged across segments and the memtable equal
// the offline fold over raw points bit-for-bit — the reconciliation
// contract the tests pin.
func encodeRollupBlock(dst []byte, bins []RollupBin) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bins)))
	for i, b := range bins {
		if i == 0 {
			dst = binary.AppendVarint(dst, b.Start)
		} else {
			dst = binary.AppendUvarint(dst, uint64(b.Start-bins[i-1].Start))
		}
		dst = binary.AppendUvarint(dst, b.Count)
		dst = binary.AppendUvarint(dst, b.Sum)
		dst = binary.AppendUvarint(dst, b.Max)
	}
	return dst
}

// decodeRollupBlock decodes one rollup block, appending into dst. Like
// decodeBlock it rejects truncated streams, trailing garbage and
// implausible headers and never panics on arbitrary input
// (FuzzRollupCodec pins this).
func decodeRollupBlock(dst []RollupBin, data []byte) ([]RollupBin, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("store: rollup block header: bad count varint")
	}
	data = data[n:]
	if count > maxBlockPoints {
		return nil, fmt.Errorf("store: rollup block declares %d bins (max %d)", count, maxBlockPoints)
	}
	// Every bin costs at least four bytes (delta + count + sum + max).
	if count > uint64(len(data))+1 {
		return nil, fmt.Errorf("store: rollup block declares %d bins in %d bytes", count, len(data))
	}
	var start int64
	for i := uint64(0); i < count; i++ {
		var b RollupBin
		if i == 0 {
			v, n := binary.Varint(data)
			if n <= 0 {
				return nil, fmt.Errorf("store: rollup block: bad first bin start")
			}
			start = v
			data = data[n:]
		} else {
			d, n := binary.Uvarint(data)
			if n <= 0 || d == 0 {
				return nil, fmt.Errorf("store: rollup block truncated or unordered at bin %d", i)
			}
			start += int64(d)
			data = data[n:]
		}
		b.Start = start
		var v uint64
		var n int
		if v, n = binary.Uvarint(data); n <= 0 || v == 0 {
			return nil, fmt.Errorf("store: rollup block: bad point count at bin %d", i)
		}
		b.Count = v
		data = data[n:]
		if b.Sum, n = binary.Uvarint(data); n <= 0 {
			return nil, fmt.Errorf("store: rollup block truncated at bin %d (sum)", i)
		}
		data = data[n:]
		if b.Max, n = binary.Uvarint(data); n <= 0 {
			return nil, fmt.Errorf("store: rollup block truncated at bin %d (max)", i)
		}
		data = data[n:]
		dst = append(dst, b)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("store: rollup block carries %d trailing bytes", len(data))
	}
	return dst, nil
}

// computeRollups folds ascending raw points into epoch-aligned bins of
// binSec seconds: the flush-time producer of the precomputed blocks and
// the read-time fold applied to memtable tails — one function, so the
// two paths cannot drift.
func computeRollups(dst []RollupBin, pts []Point, binSec int64) []RollupBin {
	for _, p := range pts {
		dst = foldRollup(dst, p, binSec)
	}
	return dst
}

// foldRollup accumulates one point into the (append-only, ascending)
// bin list, coalescing it with the last bin when they share a start.
func foldRollup(dst []RollupBin, p Point, binSec int64) []RollupBin {
	start := alignDown(p.Ts, binSec)
	if len(dst) == 0 || dst[len(dst)-1].Start != start {
		dst = append(dst, RollupBin{Start: start})
	}
	b := &dst[len(dst)-1]
	b.Count++
	b.Sum += p.Val // wrapping
	if p.Val > b.Max {
		b.Max = p.Val
	}
	return dst
}

// decodeBlock decodes one block, appending into dst (pass nil to
// allocate). It rejects trailing garbage, truncated streams and
// implausible headers; it never panics on arbitrary input (the
// FuzzBlockCodec target pins this).
func decodeBlock(dst []Point, data []byte) ([]Point, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("store: block header: bad count varint")
	}
	data = data[n:]
	if count > maxBlockPoints {
		return nil, fmt.Errorf("store: block declares %d points (max %d)", count, maxBlockPoints)
	}
	// Every point past the first two costs at least two bytes; bound the
	// allocation by what the payload could possibly hold.
	if count > uint64(len(data))+2 {
		return nil, fmt.Errorf("store: block declares %d points in %d bytes", count, len(data))
	}
	if count == 0 {
		if len(data) != 0 {
			return nil, fmt.Errorf("store: empty block carries %d trailing bytes", len(data))
		}
		return dst, nil
	}
	if cap(dst)-len(dst) < int(count) {
		grown := make([]Point, len(dst), len(dst)+int(count))
		copy(grown, dst)
		dst = grown
	}
	ts, n := binary.Varint(data)
	if n <= 0 {
		return nil, fmt.Errorf("store: block: bad first timestamp")
	}
	data = data[n:]
	val, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("store: block: bad first value")
	}
	data = data[n:]
	dst = append(dst, Point{Ts: ts, Val: val})
	var tsD, valD int64
	for i := uint64(1); i < count; i++ {
		d1, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("store: block truncated at point %d (timestamp)", i)
		}
		data = data[n:]
		d2, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("store: block truncated at point %d (value)", i)
		}
		data = data[n:]
		if i == 1 {
			tsD, valD = d1, d2
		} else {
			tsD += d1
			valD += d2
		}
		ts += tsD
		val += uint64(valD) // wrapping, mirrors encode
		dst = append(dst, Point{Ts: ts, Val: val})
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("store: block carries %d trailing bytes", len(data))
	}
	return dst, nil
}
