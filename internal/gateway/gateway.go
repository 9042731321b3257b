// Package gateway models the residential-gateway measurement layer of
// Sec. 3: every minute the RGW logs, per connected device and per
// direction, the *cumulative* number of bytes seen at the IP layer, and
// reports these counters to a central server. Analysis needs per-minute
// byte counts, so the package provides both directions of the
// transformation:
//
//   - Emitter turns per-minute traffic (e.g. from internal/synth) into the
//     cumulative counter reports a real gateway would send, including
//     32-bit counter wrap.
//   - Meter/Recorder difference a stream of cumulative reports back into
//     per-minute series, handling counter wrap and reporting gaps.
package gateway

import (
	"fmt"
	"math"
	"sort"
	"time"

	"homesight/internal/timeseries"
)

// CounterWidth is the bit width of the RGW byte counters. Commodity
// gateways expose 32-bit MIB counters, which wrap every ~4 GiB.
const CounterWidth = 32

// counterModulus is 2^CounterWidth.
const counterModulus = uint64(1) << CounterWidth

// DeviceCounters is one device's cumulative state inside a report.
type DeviceCounters struct {
	// MAC identifies the device (the paper's device identity).
	MAC string `json:"mac"`
	// Name is the user-assigned host name, if any.
	Name string `json:"name,omitempty"`
	// RxBytes and TxBytes are cumulative incoming/outgoing byte counters,
	// modulo 2^32.
	RxBytes uint64 `json:"rx"`
	TxBytes uint64 `json:"tx"`
}

// Report is one per-minute measurement report from a gateway.
type Report struct {
	GatewayID string           `json:"gw"`
	Timestamp time.Time        `json:"ts"`
	Devices   []DeviceCounters `json:"devices"`
}

// Meter differences a cumulative, wrapping counter stream into deltas.
type Meter struct {
	last        uint64
	initialized bool
}

// Delta consumes the next cumulative reading and returns the bytes since
// the previous one, accounting for wrap. The first reading initializes the
// meter and yields ok = false (no interval to attribute bytes to).
func (m *Meter) Delta(cur uint64) (delta uint64, ok bool) {
	cur %= counterModulus
	if !m.initialized {
		m.last = cur
		m.initialized = true
		return 0, false
	}
	if cur >= m.last {
		delta = cur - m.last
	} else {
		delta = counterModulus - m.last + cur
	}
	m.last = cur
	return delta, true
}

// Reset forgets the meter state (used across reporting gaps, where the
// missed wraps make the delta unattributable).
func (m *Meter) Reset() { m.initialized = false }

// Emitter converts per-minute traffic into cumulative counter reports.
type Emitter struct {
	GatewayID string
	rx, tx    map[string]uint64
}

// NewEmitter returns an emitter for one gateway.
func NewEmitter(gatewayID string) *Emitter {
	return &Emitter{
		GatewayID: gatewayID,
		rx:        make(map[string]uint64),
		tx:        make(map[string]uint64),
	}
}

// DeviceMinute is one device's traffic during the minute being emitted.
type DeviceMinute struct {
	MAC, Name string
	// InBytes and OutBytes are the bytes moved during the minute; NaN means
	// the device was not connected and is omitted from the report.
	InBytes, OutBytes float64
}

// Emit produces the report for one minute. Devices with NaN traffic are
// skipped, exactly as a disconnected station is absent from a real report.
func (e *Emitter) Emit(ts time.Time, minutes []DeviceMinute) Report {
	rep := Report{GatewayID: e.GatewayID, Timestamp: ts}
	for _, dm := range minutes {
		if math.IsNaN(dm.InBytes) || math.IsNaN(dm.OutBytes) {
			continue
		}
		e.rx[dm.MAC] = (e.rx[dm.MAC] + uint64(dm.InBytes)) % counterModulus
		e.tx[dm.MAC] = (e.tx[dm.MAC] + uint64(dm.OutBytes)) % counterModulus
		rep.Devices = append(rep.Devices, DeviceCounters{
			MAC:     dm.MAC,
			Name:    dm.Name,
			RxBytes: e.rx[dm.MAC],
			TxBytes: e.tx[dm.MAC],
		})
	}
	return rep
}

// Recorder reconstructs per-minute series from a stream of reports.
type Recorder struct {
	start time.Time
	step  time.Duration

	devices map[string]*deviceRecord
}

type deviceRecord struct {
	name    string
	rx, tx  Meter
	lastIdx int
	in, out []float64
}

// NewRecorder returns a recorder anchored at start with the given step
// (one minute for RGW reports).
func NewRecorder(start time.Time, step time.Duration) *Recorder {
	if step <= 0 {
		panic("gateway: non-positive step")
	}
	return &Recorder{start: start.UTC(), step: step, devices: make(map[string]*deviceRecord)}
}

// Ingest consumes one report. Reports may arrive out of order across
// gateways but must be non-decreasing in time per device; a regression is
// rejected. Reporting gaps reset the device meters: bytes that accumulated
// while unobserved cannot be attributed to minutes.
func (r *Recorder) Ingest(rep Report) error {
	idx := int(rep.Timestamp.UTC().Sub(r.start) / r.step)
	if idx < 0 {
		return fmt.Errorf("gateway: report at %v precedes recorder start %v", rep.Timestamp, r.start)
	}
	for _, dc := range rep.Devices {
		rec := r.devices[dc.MAC]
		if rec == nil {
			rec = &deviceRecord{name: dc.Name, lastIdx: -1}
			r.devices[dc.MAC] = rec
		}
		if rec.lastIdx >= 0 && idx <= rec.lastIdx {
			return fmt.Errorf("gateway: out-of-order report for %s at index %d (last %d)", dc.MAC, idx, rec.lastIdx)
		}
		// A gap (missed minutes) makes deltas unattributable: reset.
		if rec.lastIdx >= 0 && idx != rec.lastIdx+1 {
			rec.rx.Reset()
			rec.tx.Reset()
		}
		rec.grow(idx + 1)
		din, okIn := rec.rx.Delta(dc.RxBytes)
		dout, okOut := rec.tx.Delta(dc.TxBytes)
		if okIn && okOut {
			rec.in[idx] = float64(din)
			rec.out[idx] = float64(dout)
		}
		rec.lastIdx = idx
	}
	return nil
}

// grow extends the per-minute buffers to n entries, padding with NaN.
func (d *deviceRecord) grow(n int) {
	for len(d.in) < n {
		d.in = append(d.in, math.NaN())
		d.out = append(d.out, math.NaN())
	}
}

// MACs returns the recorded device MACs, sorted.
func (r *Recorder) MACs() []string {
	out := make([]string, 0, len(r.devices))
	for mac := range r.devices {
		out = append(out, mac)
	}
	sort.Strings(out)
	return out
}

// DeviceName returns the recorded name for a MAC ("" if unknown).
func (r *Recorder) DeviceName(mac string) string {
	if rec := r.devices[mac]; rec != nil {
		return rec.name
	}
	return ""
}

// Series returns the reconstructed per-minute in/out series of a device,
// padded to length n (use 0 to keep the natural length). It returns nil if
// the device is unknown.
func (r *Recorder) Series(mac string, n int) (in, out *timeseries.Series) {
	rec := r.devices[mac]
	if rec == nil {
		return nil, nil
	}
	if n <= 0 {
		n = len(rec.in)
	}
	rec.grow(n)
	inVals := make([]float64, n)
	outVals := make([]float64, n)
	copy(inVals, rec.in[:n])
	copy(outVals, rec.out[:n])
	return timeseries.New(r.start, r.step, inVals), timeseries.New(r.start, r.step, outVals)
}

// Overall returns the summed in+out series across all devices, padded to n.
func (r *Recorder) Overall(n int) *timeseries.Series {
	if n <= 0 {
		for _, rec := range r.devices {
			if len(rec.in) > n {
				n = len(rec.in)
			}
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.NaN()
	}
	// MAC order: a float sum must not follow map order.
	for _, mac := range r.MACs() {
		rec := r.devices[mac]
		for i := 0; i < n && i < len(rec.in); i++ {
			v := rec.in[i]
			if math.IsNaN(v) {
				continue
			}
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
			vals[i] += v + rec.out[i]
		}
	}
	return timeseries.New(r.start, r.step, vals)
}
