package store

import (
	"context"
	"math"
	"testing"
	"time"

	"homesight/internal/dataset"
	"homesight/internal/gateway"
	"homesight/internal/timeseries"
)

// sameSeries fails unless got and want have the same grid and the same
// bits at every minute (NaN where want is NaN).
func sameSeries(t *testing.T, what string, got, want *timeseries.Series) {
	t.Helper()
	if !got.Start.Equal(want.Start) || got.Step != want.Step || got.Len() != want.Len() {
		t.Fatalf("%s: grid %v/%v/%d, want %v/%v/%d", what, got.Start, got.Step, got.Len(), want.Start, want.Step, want.Len())
	}
	for m, w := range want.Values {
		if g := got.Values[m]; math.IsNaN(g) != math.IsNaN(w) || (!math.IsNaN(w) && g != w) {
			t.Fatalf("%s: minute %d = %v, want %v", what, m, g, w)
		}
	}
}

func sameHome(t *testing.T, what string, got, want *dataset.Gateway) {
	t.Helper()
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("%s: %d devices, want %d", what, len(got.Devices), len(want.Devices))
	}
	for k, w := range want.Devices {
		g := got.Devices[k]
		if g.Device != w.Device {
			t.Fatalf("%s: device %d = %+v, want %+v", what, k, g.Device, w.Device)
		}
		sameSeries(t, what+" "+w.Device.MAC+" in", g.In, w.In)
		sameSeries(t, what+" "+w.Device.MAC+" out", g.Out, w.Out)
		sameSeries(t, what+" "+w.Device.MAC+" overall", g.Overall, w.Overall)
	}
	sameSeries(t, what+" overall", got.Overall, want.Overall)
}

// TestStoreHome pins the one read of a stored home's minute table. Three
// devices whose report order is not their MAC order: A reports minutes
// 0-9 and 13-15, B 3-9, C only 19-20; nobody reports 10-12. A's outgoing
// point of minute 6 is lost, so minute 6 is half observed for A (and its
// minute 7 has no outgoing delta: the meter restarts across the hole).
func TestStoreHome(t *testing.T) {
	ctx := context.Background()
	s, err := Open(Config{Dir: t.TempDir(), Start: testStart, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	const gw = "gw1"
	macA, macB, macC := "02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"
	em := gateway.NewEmitter(gw)
	for m := 0; m <= 20; m++ {
		var dms []gateway.DeviceMinute
		if m >= 19 {
			dms = append(dms, gateway.DeviceMinute{MAC: macC, Name: "tv", InBytes: 7000, OutBytes: 300})
		}
		if m >= 3 && m <= 9 {
			dms = append(dms, gateway.DeviceMinute{MAC: macB, Name: "Lea-iPhone", InBytes: float64(100 + m), OutBytes: 20})
		}
		if m <= 9 || (m >= 13 && m <= 15) {
			dms = append(dms, gateway.DeviceMinute{MAC: macA, Name: "Hugo-MacBook", InBytes: float64(1000 * m), OutBytes: float64(50 + m)})
		}
		if len(dms) == 0 {
			continue
		}
		if err := s.Append(em.Emit(testStart.Add(time.Duration(m)*time.Minute), dms)); err != nil {
			t.Fatal(err)
		}
	}
	// Lose A's outgoing point of minute 6 from the memtable.
	s.mu.Lock()
	lost := testStart.Add(6 * time.Minute).Unix()
	ser := s.mem[Key{Gateway: gw, Device: macA, Dir: DirOut}]
	for i, p := range ser.pts {
		if p.Ts == lost {
			ser.pts = append(ser.pts[:i], ser.pts[i+1:]...)
			break
		}
	}
	s.mu.Unlock()

	g, err := s.Home(ctx, gw, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != gw || len(g.Devices) != 3 {
		t.Fatalf("home %q with %d devices, want %s with 3", g.ID, len(g.Devices), gw)
	}
	for k, mac := range []string{macA, macB, macC} {
		if got := g.Devices[k].Device.MAC; got != mac {
			t.Fatalf("device %d = %s, want %s (MAC order)", k, got, mac)
		}
	}
	if d := g.Devices[0].Device; d.Name != "Hugo-MacBook" || d.Inferred == "" {
		t.Errorf("device A = %+v, want its stored name and an inferred type", d)
	}

	// Zero to is the campaign end.
	_, end := s.Campaign()
	if want := testStart.Add(21 * time.Minute); !end.Equal(want) || g.Overall.Len() != 21 {
		t.Fatalf("campaign end %v, overall of %d minutes; want %v, 21", end, g.Overall.Len(), want)
	}
	explicit, err := s.Home(ctx, gw, end)
	if err != nil {
		t.Fatal(err)
	}
	sameHome(t, "zero to vs campaign end", g, explicit)

	a, b, c := g.Devices[0], g.Devices[1], g.Devices[2]
	ov := g.Overall.Values
	// No device reported, or none has a delta yet: NaN, not zero.
	for _, m := range []int{0, 10, 11, 12, 13, 16, 17, 18, 19} {
		if !math.IsNaN(ov[m]) {
			t.Errorf("overall minute %d = %v, want NaN", m, ov[m])
		}
	}
	// The half-observed minute counts its observed direction.
	if math.IsNaN(a.In.Values[6]) || !math.IsNaN(a.Out.Values[6]) {
		t.Fatalf("device A minute 6: in %v out %v, want in observed and out missing", a.In.Values[6], a.Out.Values[6])
	}
	if want := a.In.Values[6] + (b.In.Values[6] + b.Out.Values[6]); ov[6] != want {
		t.Errorf("overall minute 6 = %v, want %v", ov[6], want)
	}
	if want := 7000.0 + 300; ov[20] != want || c.In.Values[20]+c.Out.Values[20] != want {
		t.Errorf("overall minute 20 = %v, want C's %v", ov[20], want)
	}
	// Everywhere: each device's overall is its In + Out, and the gateway's
	// is those summed in MAC order.
	want := timeseries.New(testStart, time.Minute, make([]float64, 21))
	for m := range want.Values {
		want.Values[m] = math.NaN()
	}
	for _, d := range []dataset.DeviceRecord{a, b, c} {
		dev := d.In.Clone()
		if err := dev.Add(d.Out); err != nil {
			t.Fatal(err)
		}
		sameSeries(t, d.Device.MAC+" overall", d.Overall, dev)
		if err := want.Add(dev); err != nil {
			t.Fatal(err)
		}
	}
	sameSeries(t, "overall", g.Overall, want)

	// A catalogued device with no sample before to is skipped.
	cut, err := s.Home(ctx, gw, testStart.Add(15*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Devices) != 2 || cut.Devices[0].Device.MAC != macA || cut.Devices[1].Device.MAC != macB || cut.Overall.Len() != 15 {
		t.Fatalf("home to minute 15: %d devices, %d minutes; want A and B over 15", len(cut.Devices), cut.Overall.Len())
	}
}
