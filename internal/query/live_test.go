package query

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/livestats"
)

// newTestTracker feeds a small two-device home into a live tracker.
func newTestTracker(t *testing.T, minutes int) *livestats.Tracker {
	t.Helper()
	tr := livestats.NewTracker(livestats.Config{Start: testStart, Seed: 5})
	em := gateway.NewEmitter("gw-live")
	for m := 0; m < minutes; m++ {
		dm := []gateway.DeviceMinute{
			{MAC: "02:00:00:00:00:aa", Name: "host-a", InBytes: float64(500 + m%11), OutBytes: float64(90 + m%7)},
			{MAC: "02:00:00:00:00:bb", Name: "host-b", InBytes: float64(40 + m%5), OutBytes: 10},
		}
		tr.OnReport(em.Emit(testStart.Add(time.Duration(m)*time.Minute), dm))
	}
	return tr
}

// TestLiveEndpoint: a live-only API (no store) serves the snapshot in
// the versioned envelope, 404s on untracked gateways, and leaves the
// store-backed routes unregistered.
func TestLiveEndpoint(t *testing.T) {
	tr := newTestTracker(t, 240)
	api := New(Config{Live: tr})
	h := api.Handler()

	env := get(t, h, "/api/v1/homes/gw-live/live", http.StatusOK)
	var data LiveData
	if err := json.Unmarshal(env.Data, &data); err != nil {
		t.Fatalf("decode live payload: %v", err)
	}
	if data.Gateway != "gw-live" || data.Reports != 240 {
		t.Fatalf("payload header = %s/%d reports, want gw-live/240", data.Gateway, data.Reports)
	}
	if len(data.Devices) != 2 {
		t.Fatalf("%d devices, want 2", len(data.Devices))
	}
	// Devices arrive in descending similarity order with coefficients
	// the snapshot vouches for.
	if data.Devices[0].Similarity < data.Devices[1].Similarity {
		t.Errorf("devices not sorted by similarity: %v then %v",
			data.Devices[0].Similarity, data.Devices[1].Similarity)
	}
	for _, d := range data.Devices {
		if d.Pairs == 0 || d.Pearson.N == 0 {
			t.Errorf("device %s: empty operator state on a 240-minute stream", d.MAC)
		}
		if d.Tau < 0 {
			t.Errorf("device %s: negative tau %v", d.MAC, d.Tau)
		}
	}
	for _, mac := range data.Dominants {
		found := false
		for _, d := range data.Devices {
			if d.MAC == mac && d.Dominant {
				found = true
			}
		}
		if !found {
			t.Errorf("dominant %s has no matching dominant device row", mac)
		}
	}

	get(t, h, "/api/v1/homes/nosuch/live", http.StatusNotFound)
	// Live-only tier: the store routes are not mounted at all (the mux's
	// own plain-text 404, not an enveloped API answer).
	req := httptest.NewRequest("GET", "/api/v1/homes", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("store route on a live-only tier: status %d, want 404", rec.Code)
	}
}

// TestLiveCoeffNaN: degenerate coefficients (constant device) cross the
// wire as null, never as a JSON-breaking NaN.
func TestLiveCoeffNaN(t *testing.T) {
	tr := livestats.NewTracker(livestats.Config{Start: testStart})
	em := gateway.NewEmitter("gw-flat")
	for m := 0; m < 10; m++ {
		dm := []gateway.DeviceMinute{{MAC: "02:00:00:00:00:cc", Name: "flat", InBytes: 100, OutBytes: 100}}
		tr.OnReport(em.Emit(testStart.Add(time.Duration(m)*time.Minute), dm))
	}
	api := New(Config{Live: tr})
	env := get(t, api.Handler(), "/api/v1/homes/gw-flat/live", http.StatusOK)
	var data LiveData
	if err := json.Unmarshal(env.Data, &data); err != nil {
		t.Fatalf("decode live payload: %v", err)
	}
	if len(data.Devices) != 1 {
		t.Fatalf("%d devices, want 1", len(data.Devices))
	}
	// Constant per-minute deltas give the CoMoment zero variance: the
	// batch pipeline spells that NaN, the wire spells it null.
	if data.Devices[0].Pearson.Coeff != nil {
		t.Errorf("degenerate Pearson coeff = %v on the wire, want null", *data.Devices[0].Pearson.Coeff)
	}
	if _, err := json.Marshal(data); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
}

// TestLiveWithStore: both sources configured — store routes and the
// live route serve side by side.
func TestLiveWithStore(t *testing.T) {
	s := newTestStore(t, 60)
	tr := newTestTracker(t, 60)
	api := New(Config{Store: s, Live: tr})
	h := api.Handler()
	get(t, h, "/api/v1/homes", http.StatusOK)
	get(t, h, "/api/v1/homes/gw-live/live", http.StatusOK)
	// A gateway the store knows but the tracker does not: live is 404,
	// store routes still serve it.
	get(t, h, "/api/v1/homes/gw001/live", http.StatusNotFound)
	get(t, h, fmt.Sprintf("/api/v1/homes/%s/devices", "gw001"), http.StatusOK)
}
