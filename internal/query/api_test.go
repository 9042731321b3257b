package query

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/store"
)

var testStart = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

// newTestStore fills a store with two small homes: gw001 with two
// devices, gw002 with one, over `minutes` of campaign.
func newTestStore(t *testing.T, minutes int) *store.Store {
	t.Helper()
	s, err := store.Open(store.Config{Dir: t.TempDir(), Start: testStart, FlushPoints: 700})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	for gi, gw := range []string{"gw001", "gw002"} {
		em := gateway.NewEmitter(gw)
		devs := 2 - gi
		for m := 0; m < minutes; m++ {
			var dm []gateway.DeviceMinute
			for d := 0; d < devs; d++ {
				in, out := float64(500+40*d+m%11), float64(90+m%7)
				if m%180 < 20 { // three-hourly burst so bins vary
					in *= 50
				}
				dm = append(dm, gateway.DeviceMinute{
					MAC:     fmt.Sprintf("02:00:00:00:0%d:0%d", gi, d),
					Name:    fmt.Sprintf("host-%d-%d", gi, d),
					InBytes: in, OutBytes: out,
				})
			}
			if err := s.Append(em.Emit(testStart.Add(time.Duration(m)*time.Minute), dm)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestAPI(t *testing.T, s *store.Store) *API {
	t.Helper()
	return New(Config{Store: s})
}

// wireEnvelope is the decode-side view of Envelope, with the payload
// kept raw so each test unmarshals its own shape.
type wireEnvelope struct {
	Version string          `json:"version"`
	Data    json.RawMessage `json:"data"`
	Error   *Error          `json:"error"`
}

// get performs one request against the API mux and decodes the
// envelope, checking status and version along the way.
func get(t *testing.T, h http.Handler, url string, wantCode int) wireEnvelope {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, rec.Code, wantCode, rec.Body)
	}
	var env wireEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("GET %s: bad envelope: %v (body %s)", url, err, rec.Body)
	}
	if env.Version != Version {
		t.Fatalf("GET %s: envelope version %q, want %q", url, env.Version, Version)
	}
	if wantCode == http.StatusOK && env.Error != nil {
		t.Fatalf("GET %s: unexpected error in 200 envelope: %+v", url, env.Error)
	}
	if wantCode != http.StatusOK && (env.Error == nil || env.Error.Code != wantCode) {
		t.Fatalf("GET %s: error envelope %+v, want code %d", url, env.Error, wantCode)
	}
	return env
}

// fetch returns the raw body of one 200 answer; unlike get it may be
// called off the test goroutine.
func fetch(t *testing.T, h http.Handler, url string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET %s: status %d (body %s)", url, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func TestHomesEndpoint(t *testing.T) {
	h := newTestAPI(t, newTestStore(t, 120)).Handler()
	env := get(t, h, "/api/v1/homes", http.StatusOK)
	var homes []HomeInfo
	if err := json.Unmarshal(env.Data, &homes); err != nil {
		t.Fatal(err)
	}
	want := []HomeInfo{{ID: "gw001", Devices: 2}, {ID: "gw002", Devices: 1}}
	if len(homes) != len(want) || homes[0] != want[0] || homes[1] != want[1] {
		t.Fatalf("homes = %+v, want %+v", homes, want)
	}
}

func TestDevicesEndpoint(t *testing.T) {
	h := newTestAPI(t, newTestStore(t, 120)).Handler()
	env := get(t, h, "/api/v1/homes/gw001/devices", http.StatusOK)
	var devs []DeviceInfo
	if err := json.Unmarshal(env.Data, &devs); err != nil {
		t.Fatal(err)
	}
	if len(devs) != 2 || devs[0].MAC != "02:00:00:00:00:00" || devs[0].Type == "" {
		t.Fatalf("devices = %+v", devs)
	}
	get(t, h, "/api/v1/homes/nope/devices", http.StatusNotFound)
}

func TestSeriesEndpointRaw(t *testing.T) {
	s := newTestStore(t, 120)
	h := newTestAPI(t, s).Handler()
	env := get(t, h, "/api/v1/series?gw=gw001&device=02:00:00:00:00:01&dir=out", http.StatusOK)
	var data SeriesData
	if err := json.Unmarshal(env.Data, &data); err != nil {
		t.Fatal(err)
	}
	if data.Gran != "raw" || data.Dir != "out" || len(data.Bins) != 0 {
		t.Fatalf("raw series = %+v", data)
	}
	if len(data.T) != 120 || len(data.Val) != 120 {
		t.Fatalf("raw series has %d offsets and %d values, want 120 of each", len(data.T), len(data.Val))
	}
	if data.From != testStart.Unix() {
		t.Fatalf("raw series from %d, want the campaign start %d", data.From, testStart.Unix())
	}
	// One sample a minute from the campaign start: t counts seconds after from.
	for i, off := range data.T {
		if off != int64(60*i) || data.Val[i] == 0 {
			t.Fatalf("sample %d: t=%d val=%d, want t=%d and a non-zero counter", i, off, data.Val[i], 60*i)
		}
	}
}

func TestSeriesEndpointBinned(t *testing.T) {
	s := newTestStore(t, 10*60) // ten hours: four 3h bins (last partial)
	h := newTestAPI(t, s).Handler()
	env := get(t, h, "/api/v1/series?gw=gw001&device=02:00:00:00:00:00&gran=3h&agg=mean", http.StatusOK)
	var data SeriesData
	if err := json.Unmarshal(env.Data, &data); err != nil {
		t.Fatal(err)
	}
	if data.Gran != "3h" || data.Agg != "mean" || len(data.T) != 0 || len(data.Val) != 0 {
		t.Fatalf("binned series = %+v", data)
	}
	if len(data.Bins) != 4 {
		t.Fatalf("10h of minutes binned at 3h: %d bins, want 4", len(data.Bins))
	}
	// The wire bins must equal a direct store query, value for value.
	res, err := s.Query(context.Background(), store.QueryRequest{
		Key:  store.Key{Gateway: "gw001", Device: "02:00:00:00:00:00", Dir: store.DirIn},
		Gran: store.Gran3h, Agg: store.AggMean,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res.Bins {
		got := data.Bins[i]
		if got.Start != b.Start || got.Count != b.Count || got.Value != b.Value(store.AggMean) {
			t.Fatalf("bin %d: wire %+v vs store %+v", i, got, b)
		}
	}
}

func TestSeriesEndpointErrors(t *testing.T) {
	h := newTestAPI(t, newTestStore(t, 60)).Handler()
	cases := []struct {
		url  string
		code int
	}{
		{"/api/v1/series", http.StatusBadRequest},
		{"/api/v1/series?gw=gw001", http.StatusBadRequest},
		{"/api/v1/series?gw=gw001&device=02:00:00:00:00:00&dir=sideways", http.StatusBadRequest},
		{"/api/v1/series?gw=gw001&device=02:00:00:00:00:00&gran=5m", http.StatusBadRequest},
		{"/api/v1/series?gw=gw001&device=02:00:00:00:00:00&gran=3h&agg=p99", http.StatusBadRequest},
		{"/api/v1/series?gw=gw001&device=02:00:00:00:00:00&from=late", http.StatusBadRequest},
		{"/api/v1/series?gw=gw001&device=02:00:00:00:00:00&limit=ten", http.StatusBadRequest},
		// Inverted range: store-side ErrBadRequest must surface as 400.
		{"/api/v1/series?gw=gw001&device=02:00:00:00:00:00&from=1395100000&to=1395000000", http.StatusBadRequest},
		// Raw granularity rejects aggregation.
		{"/api/v1/series?gw=gw001&device=02:00:00:00:00:00&agg=sum", http.StatusBadRequest},
		{"/api/v1/series?gw=missing&device=02:00:00:00:00:00", http.StatusNotFound},
		{"/api/v1/series?gw=gw001&device=de:ad:be:ef:00:00", http.StatusNotFound},
	}
	for _, c := range cases {
		get(t, h, c.url, c.code)
	}
}

func TestSummaryEndpoint(t *testing.T) {
	h := newTestAPI(t, newTestStore(t, 2*24*60)).Handler() // two days: daily windows exist
	env := get(t, h, "/api/v1/homes/gw001/summary", http.StatusOK)
	var sum Summary
	if err := json.Unmarshal(env.Data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Gateway != "gw001" || len(sum.Devices) != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.From != testStart.Unix() || sum.To <= sum.From {
		t.Fatalf("summary window [%d, %d)", sum.From, sum.To)
	}
	for _, d := range sum.Devices {
		if d.DutyCycle <= 0 || d.DutyCycle > 1 {
			t.Fatalf("device %s duty cycle %v outside (0, 1]", d.MAC, d.DutyCycle)
		}
		if d.Traffic <= 0 {
			t.Fatalf("device %s traffic %v", d.MAC, d.Traffic)
		}
	}
	// Every device sends every minute here, so the overall is dominated.
	if len(sum.Dominants) == 0 {
		t.Fatal("no dominant devices in a fully-active home")
	}
	get(t, h, "/api/v1/homes/missing/summary", http.StatusNotFound)
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	s := newTestStore(t, 6*60)
	a := newTestAPI(t, s)
	h := a.Handler()
	url := "/api/v1/series?gw=gw001&device=02:00:00:00:00:00&gran=3h"

	get(t, h, url, http.StatusOK)
	if hits, misses := a.m.hits.Value(), a.m.misses.Value(); hits != 0 || misses == 0 {
		t.Fatalf("cold query: %d hits, %d misses", hits, misses)
	}
	env1 := get(t, h, url, http.StatusOK)
	if a.m.hits.Value() == 0 {
		t.Fatal("repeated binned query did not hit the cache")
	}

	// New data advances the home's version: the same URL must now be a
	// miss and reflect the appended minute.
	em := gateway.NewEmitter("gw001")
	rep := em.Emit(testStart.Add(6*time.Hour), []gateway.DeviceMinute{
		{MAC: "02:00:00:00:00:00", Name: "host-0-0", InBytes: 1e7, OutBytes: 1e3},
	})
	if err := s.Append(rep); err != nil {
		t.Fatal(err)
	}
	hitsBefore := a.m.hits.Value()
	env2 := get(t, h, url, http.StatusOK)
	if a.m.hits.Value() != hitsBefore {
		t.Fatal("query after append served a stale cache entry")
	}
	var d1, d2 SeriesData
	if err := json.Unmarshal(env1.Data, &d1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env2.Data, &d2); err != nil {
		t.Fatal(err)
	}
	if len(d2.Bins) != len(d1.Bins)+1 {
		t.Fatalf("append did not surface: %d bins before, %d after", len(d1.Bins), len(d2.Bins))
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newTestStore(t, 60)
	a := New(Config{Store: s, CacheEntries: -1})
	h := a.Handler()
	get(t, h, "/api/v1/homes", http.StatusOK)
	get(t, h, "/api/v1/homes", http.StatusOK)
	if hits := a.m.hits.Value(); hits != 0 {
		t.Fatalf("disabled cache recorded %d hits", hits)
	}
	if misses := a.m.misses.Value(); misses != 2 {
		t.Fatalf("disabled cache recorded %d misses, want 2", misses)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	c.put("c", []byte("3"))
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	if v, ok := c.get("c"); !ok || string(v) != "3" {
		t.Fatal("newest entry missing")
	}
	// b was not evicted and a get refreshes recency.
	if _, ok := c.get("b"); !ok {
		t.Fatal("entry b missing")
	}
	c.put("d", []byte("4"))
	if _, ok := c.get("b"); !ok {
		t.Fatal("recently-used entry evicted before stale one")
	}
	if _, ok := c.get("c"); ok {
		t.Fatal("least-recently-used entry survived")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
}

func TestEndpointMetrics(t *testing.T) {
	s := newTestStore(t, 60)
	a := newTestAPI(t, s)
	h := a.Handler()
	bodyBytes := map[string]int64{}
	for _, c := range []struct{ endpoint, url string }{
		{"homes", "/api/v1/homes"},
		{"homes", "/api/v1/homes"}, // a cache hit
		{"devices", "/api/v1/homes/gw001/devices"},
		{"devices", "/api/v1/homes/nope/devices"}, // a 404 envelope
		{"series", "/api/v1/series?gw=gw001&device=02:00:00:00:00:00"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", c.url, nil))
		bodyBytes[c.endpoint] += int64(rec.Body.Len())
	}
	if n := a.m.requests.With("homes").Value(); n != 2 {
		t.Fatalf("homes request count %d, want 2", n)
	}
	// Errors count too: the endpoint wrapper observes every request.
	if n := a.m.requests.With("devices").Value(); n != 2 {
		t.Fatalf("devices request count %d, want 2", n)
	}
	// Every body written is counted, hit or miss, success or error.
	for endpoint, want := range bodyBytes {
		if got := a.m.bytes.With(endpoint).Value(); got != want {
			t.Fatalf("%s response bytes %d, want %d", endpoint, got, want)
		}
	}
}
