package query

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/store"
)

// counted runs fn and returns how many cache hits and misses it caused.
func counted(a *API, fn func()) (hits, misses int64) {
	h0, m0 := a.m.hits.Value(), a.m.misses.Value()
	fn()
	return a.m.hits.Value() - h0, a.m.misses.Value() - m0
}

// appendMinute appends one report for gw at campaign minute m carrying
// the test store's first device of that home.
func appendMinute(t *testing.T, s *store.Store, gw, mac string, m int) {
	t.Helper()
	rep := gateway.NewEmitter(gw).Emit(testStart.Add(time.Duration(m)*time.Minute), []gateway.DeviceMinute{
		{MAC: mac, InBytes: 1e6, OutBytes: 1e3},
	})
	if err := s.Append(rep); err != nil {
		t.Fatal(err)
	}
}

func TestSummarySingleFlight(t *testing.T) {
	s := newTestStore(t, 2*24*60)
	const url = "/api/v1/homes/gw001/summary"

	// What one build of this home reads: a fresh API's first answer.
	before := s.Stats().RawBlockReads
	want := fetch(t, New(Config{Store: s}).Handler(), url)
	oneBuild := s.Stats().RawBlockReads - before
	if oneBuild == 0 {
		t.Fatal("a summary build decoded no raw block: the test cannot count builds")
	}

	a := newTestAPI(t, s)
	h := a.Handler()
	const clients = 16
	bodies := make([][]byte, clients)
	before = s.Stats().RawBlockReads
	hits, misses := counted(a, func() {
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-gate
				bodies[c] = fetch(t, h, url)
			}(c)
		}
		close(gate)
		wg.Wait()
	})
	if misses != 1 || hits != clients-1 {
		t.Fatalf("%d concurrent requests for a cold home: %d misses, %d hits, want 1 and %d", clients, misses, hits, clients-1)
	}
	if got := s.Stats().RawBlockReads - before; got != oneBuild {
		t.Fatalf("%d concurrent requests decoded %d raw blocks; one build decodes %d", clients, got, oneBuild)
	}
	for c, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Fatalf("client %d got\n%s\nwant\n%s", c, body, want)
		}
	}
}

// A build in one home must not hold up another home's: with gw001's slot
// held (a build in progress), gw002 is still answered.
func TestSummaryHomesDoNotSerialise(t *testing.T) {
	a := newTestAPI(t, newTestStore(t, 24*60))
	h := a.Handler()
	busy := a.summaries.slot("gw001")
	busy.mu.Lock()
	done := make(chan []byte)
	go func() { done <- fetch(t, h, "/api/v1/homes/gw002/summary") }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("gw002's summary waited for gw001's slot")
	}
	blocked := make(chan []byte)
	go func() { blocked <- fetch(t, h, "/api/v1/homes/gw001/summary") }()
	busy.mu.Unlock()
	if body := <-blocked; len(body) == 0 {
		t.Fatal("gw001's summary was empty once its slot was free")
	}
}

func TestPerHomeInvalidation(t *testing.T) {
	const minutes = 10 * 60
	s := newTestStore(t, minutes)
	// gw002 runs one minute ahead, so it — not the home written to below —
	// sets the campaign end.
	appendMinute(t, s, "gw002", "02:00:00:00:01:00", minutes)
	a := newTestAPI(t, s)
	h := a.Handler()

	urls := func(gw, mac string) []string {
		return []string{
			"/api/v1/homes/" + gw + "/summary",
			"/api/v1/homes/" + gw + "/devices",
			"/api/v1/series?gw=" + gw + "&device=" + mac + "&gran=3h&agg=max",
		}
	}
	homeA, homeB := urls("gw001", "02:00:00:00:00:00"), urls("gw002", "02:00:00:00:01:00")
	ask := func(list []string) (bodies [][]byte) {
		for _, u := range list {
			bodies = append(bodies, fetch(t, h, u))
		}
		return bodies
	}
	expect := func(what string, list []string, wantHits, wantMisses int64) [][]byte {
		t.Helper()
		var bodies [][]byte
		hits, misses := counted(a, func() { bodies = ask(list) })
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("%s: %d hits, %d misses, want %d and %d", what, hits, misses, wantHits, wantMisses)
		}
		return bodies
	}
	same := func(what string, got, want [][]byte) {
		t.Helper()
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s, answer %d changed:\n%s\nwas\n%s", what, i, got[i], want[i])
			}
		}
	}

	expect("cold A", homeA, 0, 3)
	coldB := expect("cold B", homeB, 0, 3)
	warmA := expect("warm A", homeA, 3, 0)

	// One accepted report for A: A's answers are rebuilt once, B's stand.
	appendMinute(t, s, "gw001", "02:00:00:00:00:00", minutes)
	newA := expect("A after its append", homeA, 0, 3)
	for i := range newA {
		if i != 1 && bytes.Equal(newA[i], warmA[i]) { // the device list itself did not change
			t.Fatalf("A's answer %d does not reflect the appended minute", i)
		}
	}
	same("A re-asked", expect("A re-asked", homeA, 3, 0), newA)
	same("B after A's append", expect("B after A's append", homeB, 3, 0), coldB)

	// The same report again is dropped by the watermark: nothing moves.
	appendMinute(t, s, "gw001", "02:00:00:00:00:00", minutes)
	same("A after a duplicate", expect("A after a duplicate", homeA, 3, 0), newA)
	same("B after a duplicate", expect("B after a duplicate", homeB, 3, 0), coldB)

	// A report for A that moves the campaign end changes the one thing
	// other homes' answers take from it: the defaulted end of the window.
	// B's summary and whole-campaign series are rebuilt — and equal what a
	// fresh API builds — while its device list and an explicit range stay
	// cached.
	explicit := "/api/v1/series?gw=gw002&device=02:00:00:00:01:00&gran=3h&from=1395014400&to=1395025200"
	ranged := expect("explicit range, cold", []string{explicit}, 0, 1)
	appendMinute(t, s, "gw001", "02:00:00:00:00:00", minutes+5)
	movedB := expect("B after the campaign end moved", homeB, 1, 2)
	same("B's device list", movedB[1:2], coldB[1:2])
	same("explicit range", expect("explicit range, warm", []string{explicit}, 1, 0), ranged)
	for i, u := range homeB {
		if want := fetch(t, New(Config{Store: s}).Handler(), u); !bytes.Equal(movedB[i], want) {
			t.Fatalf("GET %s after the campaign end moved:\n%s\na fresh API serves\n%s", u, movedB[i], want)
		}
	}
	if bytes.Equal(movedB[0], coldB[0]) || bytes.Equal(movedB[2], coldB[2]) {
		t.Fatal("B's whole-campaign answers kept the old campaign end")
	}
}

func TestSummaryMemoBoundedByCatalog(t *testing.T) {
	a := newTestAPI(t, newTestStore(t, 60))
	h := a.Handler()
	for i := 0; i < 50; i++ {
		get(t, h, "/api/v1/homes/ghost-"+string(rune('a'+i%26))+"/summary", http.StatusNotFound)
	}
	if n := len(a.summaries.homes); n != 0 {
		t.Fatalf("404s left %d memo slots", n)
	}
	for i := 0; i < 3; i++ {
		fetch(t, h, "/api/v1/homes/gw001/summary")
		fetch(t, h, "/api/v1/homes/gw002/summary")
	}
	if n := len(a.summaries.homes); n != 2 {
		t.Fatalf("memo holds %d slots for 2 catalogued gateways", n)
	}
}
