package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"homesight/internal/fleet"
	"homesight/internal/gateway"
	homestore "homesight/internal/store"
	"homesight/internal/synth"
)

// demoReport runs a demo and returns its totals and motif sections:
// everything from the "gateway totals" line on.
func demoReport(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-demo", "-homes", "2", "-weeks", "1", "-log-level", "error"}, args...)
	if err := runCollector(context.Background(), args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	_, sections, ok := strings.Cut(out.String(), "gateway totals")
	if !ok {
		t.Fatalf("run %v printed no totals:\n%s", args, out.String())
	}
	return sections
}

// TestDemoIndependentOfShardCount: the demo's totals and motifs are read
// back from the partitions in gateway order, so they depend neither on
// how many shards the campaign was spread over nor on scheduling.
func TestDemoIndependentOfShardCount(t *testing.T) {
	one := demoReport(t, "-shards", "1")
	if n := strings.Count(one, "devices="); n != 2 {
		t.Fatalf("%d gateway total lines, want 2:\n%s", n, one)
	}
	if !strings.Contains(one, "motif 0:") {
		t.Fatalf("no motif mined, so the shard counts are compared on nothing:\n%s", one)
	}
	if two := demoReport(t, "-shards", "2"); two != one {
		t.Errorf("-shards 2 printed\n%s\n-shards 1 printed\n%s", two, one)
	}
	if again := demoReport(t, "-shards", "1"); again != one {
		t.Errorf("a second -shards 1 run printed\n%s\nthe first printed\n%s", again, one)
	}
}

// TestReportMinesRecurringEvenings: three days of the same evening
// activity, written to a partition, are one motif of support 3. Each day
// also has a 3-hour burst of chatter below the background cap, in a
// different bin per day: only with background removed do the days look
// alike. The rest of the week has no reports; its windows are
// unobserved and not mined.
func TestReportMinesRecurringEvenings(t *testing.T) {
	cfg := synth.Config{Start: time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC), Weeks: 1}
	root := t.TempDir()
	st, err := homestore.Open(homestore.Config{
		Dir: filepath.Join(root, "shard-0000"), Start: cfg.Start, Step: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	em := gateway.NewEmitter("gwB")
	for m := 0; m < 3*24*60; m++ {
		day, h := m/(24*60), m%(24*60)/60
		traffic := 120.0 // background
		switch {
		case h >= 19 && h < 23:
			traffic = 6000 // evening activity: 6 600 B/min with OutBytes, above the cap
		case h/3 == day:
			traffic = 4000 // chatter: 4 400 B/min, below the cap
		}
		rep := em.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), []gateway.DeviceMinute{
			{MAC: "m1", InBytes: traffic, OutBytes: traffic / 10},
		})
		if err := st.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := report(&out, root, cfg, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  gwB  devices=1  ",
		"discovered 1 daily motifs in 3 windows:\n  motif 0: support 3 across 1 gateways\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// accountingWriter keeps what it is given, closing done on the write
// that carries the campaign's accounting line.
type accountingWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	once sync.Once
	done chan struct{}
}

func (w *accountingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if bytes.HasPrefix(p, []byte("accounting: ")) {
		w.once.Do(func() { close(w.done) })
	}
	return w.buf.Write(p)
}

func (w *accountingWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestCollectorRouterServesItsMetrics: -router counts into the
// -debug-addr registry, so the routed-reports series equals what the
// command printed, and -hold keeps that server up until the context
// ends.
func TestCollectorRouterServesItsMetrics(t *testing.T) {
	cfg := synth.NewDeployment(synth.Config{Homes: 1, Weeks: 1}).Config()
	f, err := fleet.Start(fleet.Config{Dir: t.TempDir(), Shards: 1, Start: cfg.Start, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &accountingWriter{done: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"collector", "-router", "shard-0000=" + f.Addrs()[0].Addr,
			"-homes", "1", "-weeks", "1", "-debug-addr", debugAddr, "-hold", "1h", "-log-level", "error"}, out)
	}()
	select {
	case <-out.done:
	case err := <-done:
		t.Fatalf("run returned before its campaign was accounted: %v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`routed ([1-9]\d*) reports`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no nonzero routed count printed:\n%s", out.String())
	}
	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		t.Fatalf("scraping the held debug server: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nhomesight_fleet_routed_reports_total %s\n", m[1]); !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q:\n%s", strings.TrimSpace(want), body)
	}
	select {
	case err := <-done:
		t.Fatalf("run returned before its context ended, ignoring -hold: %v", err)
	default:
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled hold returned %v, want nil", err)
	}
}
