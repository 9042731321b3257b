package gateway

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"homesight/internal/synth"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

func TestMeterBasics(t *testing.T) {
	var m Meter
	if _, ok := m.Delta(100); ok {
		t.Fatal("first reading must not yield a delta")
	}
	d, ok := m.Delta(250)
	if !ok || d != 150 {
		t.Errorf("delta = %d/%v, want 150/true", d, ok)
	}
	d, _ = m.Delta(250)
	if d != 0 {
		t.Errorf("flat counter delta = %d", d)
	}
}

func TestMeterWrap(t *testing.T) {
	var m Meter
	near := counterModulus - 10
	m.Delta(near)
	d, ok := m.Delta(5) // wrapped past 2^32
	if !ok || d != 15 {
		t.Errorf("wrap delta = %d/%v, want 15/true", d, ok)
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.Delta(1000)
	m.Reset()
	if _, ok := m.Delta(500); ok {
		t.Error("post-reset first reading must not yield a delta")
	}
}

func TestEmitterSkipsDisconnected(t *testing.T) {
	e := NewEmitter("gw000")
	rep := e.Emit(mon, []DeviceMinute{
		{MAC: "m1", InBytes: 100, OutBytes: 10},
		{MAC: "m2", InBytes: math.NaN(), OutBytes: math.NaN()},
	})
	if len(rep.Devices) != 1 || rep.Devices[0].MAC != "m1" {
		t.Errorf("report devices = %+v", rep.Devices)
	}
	if rep.Devices[0].RxBytes != 100 || rep.Devices[0].TxBytes != 10 {
		t.Errorf("counters = %+v", rep.Devices[0])
	}
}

func TestEmitterCumulates(t *testing.T) {
	e := NewEmitter("gw000")
	e.Emit(mon, []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 1}})
	rep := e.Emit(mon.Add(time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 50, OutBytes: 2}})
	if rep.Devices[0].RxBytes != 150 || rep.Devices[0].TxBytes != 3 {
		t.Errorf("cumulative counters = %+v", rep.Devices[0])
	}
}

func TestRoundTripEmitterRecorder(t *testing.T) {
	// Per-minute traffic → cumulative reports → reconstructed series must
	// equal the original (except the first observed minute per device,
	// which initializes the meter).
	in := []float64{100, 200, 0, 3e9, 42, math.NaN(), 7, 9}
	out := []float64{10, 20, 0, 1e9, 4, math.NaN(), 1, 2}
	e := NewEmitter("gw000")
	r := NewRecorder(mon, time.Minute)
	for m := range in {
		rep := e.Emit(mon.Add(time.Duration(m)*time.Minute), []DeviceMinute{
			{MAC: "m1", Name: "Katys-iPhone", InBytes: in[m], OutBytes: out[m]},
		})
		if err := r.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	gotIn, gotOut := r.Series("m1", len(in))
	for m := range in {
		wantIn, wantOut := in[m], out[m]
		// Minute 0 initializes; minute 6 follows the NaN gap and
		// re-initializes: both unattributable.
		if m == 0 || m == 6 || math.IsNaN(wantIn) {
			if !math.IsNaN(gotIn.Values[m]) {
				t.Errorf("minute %d: want NaN, got %g", m, gotIn.Values[m])
			}
			continue
		}
		if gotIn.Values[m] != wantIn || gotOut.Values[m] != wantOut {
			t.Errorf("minute %d: got %g/%g, want %g/%g",
				m, gotIn.Values[m], gotOut.Values[m], wantIn, wantOut)
		}
	}
	if r.DeviceName("m1") != "Katys-iPhone" {
		t.Errorf("device name = %q", r.DeviceName("m1"))
	}
	if macs := r.MACs(); len(macs) != 1 || macs[0] != "m1" {
		t.Errorf("MACs = %v", macs)
	}
}

func TestRoundTripCounterWrap(t *testing.T) {
	// Per-minute volumes near the 32-bit limit wrap the cumulative counter
	// almost every minute; the recorder must still reconstruct the true
	// values (each delta stays below 2^32 ≈ 4.29e9).
	e := NewEmitter("gw000")
	r := NewRecorder(mon, time.Minute)
	vals := []float64{1e9, 4e9, 4.2e9, 2e9}
	for m, v := range vals {
		rep := e.Emit(mon.Add(time.Duration(m)*time.Minute), []DeviceMinute{
			{MAC: "m1", InBytes: v, OutBytes: 0},
		})
		if err := r.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	gotIn, _ := r.Series("m1", len(vals))
	for m := 1; m < len(vals); m++ {
		if gotIn.Values[m] != vals[m] {
			t.Errorf("minute %d: got %g, want %g", m, gotIn.Values[m], vals[m])
		}
	}
}

func TestRecorderRejectsOutOfOrder(t *testing.T) {
	e := NewEmitter("gw000")
	r := NewRecorder(mon, time.Minute)
	rep1 := e.Emit(mon.Add(5*time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 1, OutBytes: 1}})
	rep2 := e.Emit(mon.Add(4*time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 1, OutBytes: 1}})
	if err := r.Ingest(rep1); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(rep2); err == nil {
		t.Error("out-of-order ingest should fail")
	}
	early := Report{GatewayID: "gw000", Timestamp: mon.Add(-time.Hour)}
	if err := r.Ingest(early); err == nil {
		t.Error("pre-start ingest should fail")
	}
}

func TestRecorderOverall(t *testing.T) {
	e := NewEmitter("gw000")
	r := NewRecorder(mon, time.Minute)
	for m := 0; m < 4; m++ {
		rep := e.Emit(mon.Add(time.Duration(m)*time.Minute), []DeviceMinute{
			{MAC: "m1", InBytes: 100, OutBytes: 10},
			{MAC: "m2", InBytes: 200, OutBytes: 20},
		})
		if err := r.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	overall := r.Overall(4)
	if !math.IsNaN(overall.Values[0]) {
		t.Error("first minute should be NaN (meter init)")
	}
	for m := 1; m < 4; m++ {
		if overall.Values[m] != 330 {
			t.Errorf("minute %d overall = %g, want 330", m, overall.Values[m])
		}
	}
}

func TestPipelineFromSynth(t *testing.T) {
	// Full substrate integration: synthetic home → reports → recorder →
	// the reconstructed overall matches the home's own aggregate wherever
	// both are defined.
	cfg := synth.DefaultConfig()
	cfg.Homes = 10
	cfg.Weeks = 1
	dep := synth.NewDeployment(cfg)
	// Pick a home with solid reporting coverage; intermittent homes can be
	// offline for most of a short campaign, leaving nothing to compare.
	var h *synth.Home
	for i := 0; i < dep.NumHomes(); i++ {
		cand := dep.Home(i)
		if cand.Overall().ObservedCount() > cfg.Minutes()*3/4 {
			h = cand
			break
		}
	}
	if h == nil {
		t.Fatal("no well-covered home in 10")
	}
	traffic := h.Traffic()

	e := NewEmitter(h.ID)
	r := NewRecorder(cfg.Start, time.Minute)
	n := cfg.Minutes()
	for m := 0; m < n; m++ {
		var dms []DeviceMinute
		for _, dt := range traffic {
			dms = append(dms, DeviceMinute{
				MAC:      dt.Spec.Device.MAC,
				Name:     dt.Spec.Device.Name,
				InBytes:  dt.In.Values[m],
				OutBytes: dt.Out.Values[m],
			})
		}
		rep := e.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), dms)
		if len(rep.Devices) == 0 {
			continue // gateway offline: nothing reported this minute
		}
		if err := r.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}

	want := h.Overall()
	got := r.Overall(n)
	checked := 0
	for m := 1; m < n; m++ {
		w, g := want.Values[m], got.Values[m]
		if math.IsNaN(w) || math.IsNaN(g) {
			continue // meter inits after gaps are expected reconstruction holes
		}
		if math.Abs(w-g) > 1e-6 {
			t.Fatalf("minute %d: reconstructed %g != synthetic %g", m, g, w)
		}
		checked++
	}
	if checked < n/2 {
		t.Errorf("only %d minutes comparable, expected most of %d", checked, n)
	}
}

func TestMeterRegressionReadsAsWrap(t *testing.T) {
	// A meter cannot distinguish a counter regression (gateway reboot,
	// re-ordered report slipping past the recorder) from a genuine 32-bit
	// wrap: differencing is modular. This test pins that a regression is
	// read as a wrap — the reason duplicate and out-of-order reports MUST
	// be rejected before they reach the meters.
	var m Meter
	m.Delta(1000)
	d, ok := m.Delta(900)
	if !ok || d != counterModulus-100 {
		t.Errorf("regressed counter delta = %d/%v, want %d (interpreted as wrap)",
			d, ok, counterModulus-100)
	}
}

func TestRecorderRejectsDuplicateTimestamp(t *testing.T) {
	// A duplicate report (same timestamp twice — a reporter replaying its
	// resend tail after a reconnect) must be rejected WITHOUT touching the
	// meters: the next in-order report still yields the correct delta.
	e := NewEmitter("gw000")
	r := NewRecorder(mon, time.Minute)
	rep0 := e.Emit(mon, []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	rep1 := e.Emit(mon.Add(time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	rep2 := e.Emit(mon.Add(2*time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	if err := r.Ingest(rep0); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(rep1); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(rep1); err == nil {
		t.Fatal("duplicate report should be rejected")
	}
	if err := r.Ingest(rep2); err != nil {
		t.Fatal(err)
	}
	in, out := r.Series("m1", 3)
	for m := 1; m < 3; m++ {
		if in.Values[m] != 100 || out.Values[m] != 10 {
			t.Errorf("minute %d = %g/%g, want 100/10 (duplicate must not disturb meter state)",
				m, in.Values[m], out.Values[m])
		}
	}
}

func TestRecorderRejectionPreservesMeterState(t *testing.T) {
	// A timestamp regression is rejected before any device is metered, so
	// the delta across the rejected report stays exact even though the
	// regressed report carried older counter values.
	e := NewEmitter("gw000")
	r := NewRecorder(mon, time.Minute)
	rep0 := e.Emit(mon.Add(time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	rep1 := e.Emit(mon.Add(2*time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	rep2 := e.Emit(mon.Add(3*time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	if err := r.Ingest(rep0); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(rep1); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(rep0); err == nil { // regression: an old report again
		t.Fatal("regressed report should be rejected")
	}
	if err := r.Ingest(rep2); err != nil {
		t.Fatal(err)
	}
	in, _ := r.Series("m1", 4)
	if in.Values[2] != 100 || in.Values[3] != 100 {
		t.Errorf("deltas after rejection = %g/%g, want 100/100", in.Values[2], in.Values[3])
	}
}

func TestRecorderGapResetsMeters(t *testing.T) {
	// A reporting gap makes the accumulated bytes unattributable: the
	// minute after the gap re-initializes the meter (NaN) instead of
	// attributing the whole gap's volume to one minute. This pins the
	// gap-vs-wrap boundary: consecutive reports difference through wraps,
	// gapped reports reset.
	e := NewEmitter("gw000")
	r := NewRecorder(mon, time.Minute)
	feed := func(minute int) {
		rep := e.Emit(mon.Add(time.Duration(minute)*time.Minute),
			[]DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
		if err := r.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	feed(0)
	feed(1)
	// Minutes 2-4 never reported (the emitter still accumulates, as a real
	// device keeps moving bytes while reports are lost).
	e.Emit(mon.Add(2*time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	e.Emit(mon.Add(3*time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	e.Emit(mon.Add(4*time.Minute), []DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
	feed(5)
	feed(6)
	in, _ := r.Series("m1", 7)
	if in.Values[1] != 100 {
		t.Errorf("pre-gap delta = %g, want 100", in.Values[1])
	}
	if !math.IsNaN(in.Values[5]) {
		t.Errorf("first post-gap minute = %g, want NaN (meter reset)", in.Values[5])
	}
	if in.Values[6] != 100 {
		t.Errorf("second post-gap delta = %g, want 100", in.Values[6])
	}
}

func TestMeterDeltaRoundtripQuick(t *testing.T) {
	// For any sequence of per-minute volumes below 2^32, differencing the
	// cumulative wrapped counter recovers the volumes exactly.
	err := quick.Check(func(raw []uint32) bool {
		var m Meter
		var cum uint64
		m.Delta(cum)
		for _, v := range raw {
			cum = (cum + uint64(v)) % counterModulus
			d, ok := m.Delta(cum)
			if !ok || d != uint64(v) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestGridIndexFloors: the slot index floors toward −∞, so a time in
// (start − step, start) is before the grid rather than its first slot.
func TestGridIndexFloors(t *testing.T) {
	for _, tc := range []struct {
		off  time.Duration
		want int
	}{
		{-61 * time.Second, -2}, {-60 * time.Second, -1}, {-30 * time.Second, -1}, {-time.Nanosecond, -1},
		{0, 0}, {30 * time.Second, 0}, {59 * time.Second, 0}, {60 * time.Second, 1}, {90 * time.Minute, 90},
	} {
		if got := GridIndex(mon.Add(tc.off), mon, time.Minute); got != tc.want {
			t.Errorf("GridIndex(start%+v) = %d, want %d", tc.off, got, tc.want)
		}
	}
}

// TestRecorderRejectsReportsBeforeStart: a report stamped anywhere before
// the recorder's start is refused, including one less than a step early.
func TestRecorderRejectsReportsBeforeStart(t *testing.T) {
	devs := []DeviceCounters{{MAC: "aa", RxBytes: 10, TxBytes: 1}}
	for _, tc := range []struct {
		off     time.Duration
		wantErr bool
	}{{-30 * time.Second, true}, {-60 * time.Second, true}, {0, false}} {
		r := NewRecorder(mon, time.Minute)
		err := r.Ingest(Report{GatewayID: "gw", Timestamp: mon.Add(tc.off), Devices: devs})
		if (err != nil) != tc.wantErr {
			t.Errorf("report at start%+v: err %v, want error %v", tc.off, err, tc.wantErr)
		}
	}
}

// refEmitter is the map-per-direction emitter Emitter is held to.
type refEmitter struct {
	id     string
	rx, tx map[string]uint64
}

func (e *refEmitter) emit(ts time.Time, minutes []DeviceMinute) Report {
	rep := Report{GatewayID: e.id, Timestamp: ts}
	for _, dm := range minutes {
		if math.IsNaN(dm.InBytes) || math.IsNaN(dm.OutBytes) {
			continue
		}
		e.rx[dm.MAC] = (e.rx[dm.MAC] + uint64(dm.InBytes)) % counterModulus
		e.tx[dm.MAC] = (e.tx[dm.MAC] + uint64(dm.OutBytes)) % counterModulus
		rep.Devices = append(rep.Devices, DeviceCounters{
			MAC: dm.MAC, Name: dm.Name, RxBytes: e.rx[dm.MAC], TxBytes: e.tx[dm.MAC],
		})
	}
	return rep
}

// TestEmitterMatchesMapReference: whatever the device list does between
// minutes — devices joining, leaving, moving, going dark (NaN), repeating
// or wrapping their counters — Emit's reports equal the map-based
// reference's, minute by minute.
func TestEmitterMatchesMapReference(t *testing.T) {
	nan := math.NaN()
	dm := func(mac string, in, out float64) DeviceMinute {
		return DeviceMinute{MAC: mac, Name: "n-" + mac, InBytes: in, OutBytes: out}
	}
	steady := []DeviceMinute{dm("a", 1, 2), dm("b", 3, 4), dm("c", 5, 6)}
	cases := []struct {
		name    string
		minutes [][]DeviceMinute
	}{
		{"steady", [][]DeviceMinute{steady, steady, steady}},
		{"join", [][]DeviceMinute{steady, {dm("a", 1, 1), dm("x", 9, 9), dm("b", 1, 1), dm("c", 1, 1)}, steady}},
		{"leave", [][]DeviceMinute{steady, {dm("a", 1, 1), dm("c", 1, 1)}, steady}},
		{"reorder", [][]DeviceMinute{steady, {dm("c", 1, 1), dm("a", 1, 1), dm("b", 1, 1)}, steady}},
		{"nan", [][]DeviceMinute{steady, {dm("a", nan, 1), dm("b", 1, nan), dm("c", 7, 7)}, steady}},
		{"all dark", [][]DeviceMinute{steady, {dm("a", nan, nan)}, steady}},
		{"empty", [][]DeviceMinute{nil, steady, nil, steady}},
		{"repeat", [][]DeviceMinute{steady, {dm("a", 1, 1), dm("a", 2, 2), dm("b", 1, 1)}, steady}},
		{"wrap", [][]DeviceMinute{steady, {dm("a", 1<<32-1, 1<<33), dm("b", 3, 4), dm("c", 5, 6)}, steady}},
		{"shrink and grow", [][]DeviceMinute{steady, {dm("b", 1, 1)}, {dm("b", 1, 1), dm("d", 2, 2), dm("a", 3, 3), dm("c", 4, 4)}, steady}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEmitter("gw")
			ref := &refEmitter{id: "gw", rx: map[string]uint64{}, tx: map[string]uint64{}}
			for m, minute := range tc.minutes {
				ts := mon.Add(time.Duration(m) * time.Minute)
				got, want := e.Emit(ts, minute), ref.emit(ts, minute)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("minute %d:\n got %+v\nwant %+v", m, got, want)
				}
			}
		})
	}
}

// TestEmitterSteadyStateAllocs: once an emitter has seen its devices, an
// Emit allocates only the report's device rows.
func TestEmitterSteadyStateAllocs(t *testing.T) {
	minute := make([]DeviceMinute, 10)
	for d := range minute {
		minute[d] = DeviceMinute{MAC: fmt.Sprintf("aa:bb:cc:dd:ee:%02x", d), Name: fmt.Sprintf("device-%d", d), InBytes: 100, OutBytes: 10}
	}
	e := NewEmitter("gw")
	e.Emit(mon, minute)
	if a := testing.AllocsPerRun(100, func() { e.Emit(mon, minute) }); a > 1 {
		t.Errorf("warm Emit allocates %v times, want at most 1", a)
	}
}

var sinkReport Report

// BenchmarkEmitOrder emits a 10-device minute whose rows come in the
// same order every minute (fixed) or in one of 16 shuffled orders
// (shuffled), so the second pays for a device list that moves.
func BenchmarkEmitOrder(b *testing.B) {
	for _, shuffled := range []bool{false, true} {
		name := "fixed"
		if shuffled {
			name = "shuffled"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			orders := make([][]DeviceMinute, 16)
			for i := range orders {
				orders[i] = make([]DeviceMinute, 10)
				for d := range orders[i] {
					orders[i][d] = DeviceMinute{MAC: fmt.Sprintf("aa:bb:cc:dd:ee:%02x", d), Name: fmt.Sprintf("device-%d", d), InBytes: 100, OutBytes: 10}
				}
				if shuffled {
					rng.Shuffle(10, func(x, y int) { orders[i][x], orders[i][y] = orders[i][y], orders[i][x] })
				}
			}
			e := NewEmitter("gw")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkReport = e.Emit(mon, orders[i%len(orders)])
			}
		})
	}
}
