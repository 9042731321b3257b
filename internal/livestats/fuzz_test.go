package livestats

import (
	"encoding/binary"
	"math"
	"testing"

	"homesight/internal/stats"
	"homesight/internal/stats/corr"
)

// fuzzVal maps a 2-byte code to an observation. Three reserved codes
// exercise the non-finite paths; everything else lands on a grid with
// negatives and fractions so ties, signs and interpolation all occur.
func fuzzVal(u uint16) float64 {
	switch u {
	case 0xffff:
		return math.NaN()
	case 0xfffe:
		return math.Inf(1)
	case 0xfffd:
		return math.Inf(-1)
	}
	return (float64(u) - 1000) / 16
}

// fuzzResultEq is bit-equality on corr.Result except that two NaN
// coefficients (or p-values) count as equal.
func fuzzResultEq(a, b corr.Result) bool {
	num := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.N == b.N && num(a.Coeff, b.Coeff) && num(a.PValue, b.PValue)
}

// fuzzBytes maps a 2-byte code to a byte delta: the top two bits pick a
// scale, so one input mixes values around the 8 192 seam, around the
// 40 000 group border, up to a full 32-bit counter and up to the top of
// uint64.
func fuzzBytes(u uint16) uint64 {
	v := uint64(u & 0x3fff)
	switch u >> 14 {
	case 0:
		return v
	case 1:
		return v * 7
	case 2:
		return v << 18
	}
	return v << 50
}

// FuzzQuantileSketch pins the threshold operator against arbitrary
// integer streams. The whisker is always the batch whisker of the floored
// stream (or the exact maximum when the fence clears it) and never above
// the maximum; it is background.EstimateTau of the raw stream bit for bit,
// capped τ included, whenever the quartile order statistics and the
// whisker are below 8 192; the quantiles are stats.Quantile of the floored
// stream, monotone in p, and the quartiles lie within 2^-7 below the raw
// ones (up to the interpolation's rounding). The batch whisker is a data
// point inside the fence and can sit below the interpolated Q3, so there
// is no Q3 clamp to check. Every prefix reads bit for bit as a sketch
// counting each value at once. The input is a stream of 2-byte value
// codes.
func FuzzQuantileSketch(f *testing.F) {
	f.Add([]byte{})
	// A ramp through the unit-bucket range.
	var ramp []byte
	for i := 0; i < 40; i++ {
		ramp = binary.BigEndian.AppendUint16(ramp, uint16(i*197))
	}
	f.Add(ramp)
	// Background chatter with bursts in every log scale.
	var burst []byte
	for i := 0; i < 300; i++ {
		v := uint16(i % 97)
		if i%31 == 0 {
			v = uint16(i%3+1)<<14 | uint16(i*53)&0x3fff
		}
		burst = binary.BigEndian.AppendUint16(burst, v)
	}
	f.Add(burst)
	// Equal order statistics: lo·(1−f) + hi·f rounded an ulp either side
	// of lo == hi, so a higher p could return a smaller quantile.
	f.Add([]byte("a0a0a0"))
	f.Add([]byte("0000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		q := new(QuantileSketch)
		var vals []uint64
		for ; len(data) >= 2; data = data[2:] {
			v := fuzzBytes(binary.BigEndian.Uint16(data))
			q.Observe(v)
			vals = append(vals, v)
		}
		checkFoldMatchesDirect(t, vals)
		if q.N() != int64(len(vals)) {
			t.Fatalf("N = %d, want %d", q.N(), len(vals))
		}
		if len(vals) == 0 {
			if w := q.Whisker(); w != 0 {
				t.Fatalf("empty-sample whisker = %v, want 0", w)
			}
			return
		}
		checkWhisker(t, q, vals)
		floored, raw := toFloats(vals, sketchFloor), toFloats(vals, rawValue)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			v := q.Quantile(p)
			if want := stats.Quantile(floored, p); v != want {
				t.Fatalf("Quantile(%v) = %v, want %v of the floored stream", p, v, want)
			}
			if v < prev {
				t.Fatalf("Quantile(%v) = %v < previous %v", p, v, prev)
			}
			prev = v
		}
		// Flooring only lowers values, but stats.Interpolate is monotone in
		// p, not in the order statistics: rounding hi−lo can put a floored
		// quartile an ulp or two above the raw one (seed_interpolation_ulp).
		for _, p := range []float64{probQ1, probQ3} {
			got, want := q.Quantile(p), stats.Quantile(raw, p)
			if got-want > want*0x1p-50 || want-got > want/(1<<sketchPageBits) {
				t.Fatalf("Quantile(%v) = %v, raw %v: not within 2^-7 below", p, got, want)
			}
		}
	})
}

// FuzzRankSketch pins the reservoir rank operator: observing never
// panics, the sample never outgrows its capacity, exact mode (n ≤ cap)
// reproduces the batch Spearman ρ and Kendall τ-b bit-for-bit, the
// seeded reservoir is deterministic, and every coefficient is NaN or in
// [-1, 1]. Bytes 0–1 pick the capacity and the seed; the rest is a
// stream of (x, y) 2-byte code pairs.
func FuzzRankSketch(f *testing.F) {
	f.Add([]byte{})
	// A correlated exact-mode stream with ties.
	exact := []byte{200, 7}
	for i := 0; i < 40; i++ {
		exact = binary.BigEndian.AppendUint16(exact, uint16(i/3))
		exact = binary.BigEndian.AppendUint16(exact, uint16(i))
	}
	f.Add(exact)
	// A stream that overflows a minimum-size reservoir.
	over := []byte{0, 42}
	for i := 0; i < 64; i++ {
		over = binary.BigEndian.AppendUint16(over, uint16(i*91%4093))
		over = binary.BigEndian.AppendUint16(over, uint16(i*57%2039))
	}
	f.Add(over)
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, seed := minRankCap, int64(0)
		if len(data) > 0 {
			capacity += int(data[0])
			data = data[1:]
		}
		if len(data) > 0 {
			seed = int64(data[0])
			data = data[1:]
		}
		rs := NewRankSketch(capacity, seed)
		again := NewRankSketch(capacity, seed)
		var xs, ys []float64
		for len(data) >= 4 {
			x := fuzzVal(binary.BigEndian.Uint16(data))
			y := fuzzVal(binary.BigEndian.Uint16(data[2:]))
			data = data[4:]
			rs.Observe(x, y)
			again.Observe(x, y)
			xs = append(xs, x)
			ys = append(ys, y)
		}
		if rs.N() != int64(len(xs)) {
			t.Fatalf("N = %d, want %d", rs.N(), len(xs))
		}
		if len(rs.xs) > rs.cap || len(rs.ys) != len(rs.xs) {
			t.Fatalf("reservoir %d/%d pairs over capacity %d", len(rs.xs), len(rs.ys), rs.cap)
		}
		if rs.Sampled() != (len(xs) > rs.cap) {
			t.Fatalf("Sampled() = %v with n %d, cap %d", rs.Sampled(), len(xs), rs.cap)
		}
		gotS, gotK := rs.SpearmanKendall()
		for _, res := range []corr.Result{gotS, gotK} {
			if !math.IsNaN(res.Coeff) && (res.Coeff < -1 || res.Coeff > 1) {
				t.Fatalf("coefficient %v outside [-1, 1]", res.Coeff)
			}
		}
		if againS, againK := again.SpearmanKendall(); !fuzzResultEq(againS, gotS) || !fuzzResultEq(againK, gotK) {
			t.Fatalf("same stream, same seed diverged: %+v/%+v vs %+v/%+v",
				gotS, gotK, againS, againK)
		}
		// Every append bumps the generation; past the cap only accepted
		// draws do.
		gen, fill := rs.Generation(), uint64(len(rs.xs))
		if gen != again.Generation() || gen < fill || gen > uint64(len(xs)) || (!rs.Sampled() && gen != fill) {
			t.Fatalf("generation %d (twin %d) after %d pairs at cap %d", gen, again.Generation(), len(xs), rs.cap)
		}
		if !rs.Sampled() && len(xs) >= 3 {
			wantS, _ := corr.Spearman(xs, ys)
			wantK, _ := corr.Kendall(xs, ys)
			if !fuzzResultEq(gotS, wantS) {
				t.Fatalf("exact Spearman = %+v, want %+v", gotS, wantS)
			}
			if !fuzzResultEq(gotK, wantK) {
				t.Fatalf("exact Kendall = %+v, want %+v", gotK, wantK)
			}
		}
	})
}
