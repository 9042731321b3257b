package telemetry

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"homesight/internal/telemetry/faultnet"
)

func TestReporterConfigDefaults(t *testing.T) {
	got := ReporterConfig{}.withDefaults("addr")
	if got.Dial == nil {
		t.Error("default Dial missing")
	}
	if got.DialAttempts != DefaultDialAttempts || got.BaseBackoff != DefaultBaseBackoff ||
		got.MaxBackoff != DefaultMaxBackoff || got.Window != DefaultBatchWindow || got.Seed != 1 {
		t.Errorf("withDefaults() = %+v", got)
	}
	// The window holds at least the frame in flight.
	if got := (ReporterConfig{Window: -1}).withDefaults("addr"); got.Window != DefaultBatchWindow {
		t.Errorf("Window = %d, want %d", got.Window, DefaultBatchWindow)
	}
}

// TestReporterBackoffEnvelope pins the reconnect delay schedule: doubling
// from the base, capped at the max, jittered within [d/2, d], and
// deterministic for a fixed seed.
func TestReporterBackoffEnvelope(t *testing.T) {
	cfg := ReporterConfig{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}.withDefaults("x")
	r1 := &BatchReporter{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	r2 := &BatchReporter{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for attempt := 1; attempt <= 10; attempt++ {
		d := cfg.BaseBackoff << uint(attempt-1)
		if d <= 0 || d > cfg.MaxBackoff {
			d = cfg.MaxBackoff
		}
		b1 := r1.backoff(attempt)
		if b2 := r2.backoff(attempt); b1 != b2 {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", attempt, b1, b2)
		}
		if b1 < d/2 || b1 > d {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, b1, d/2, d)
		}
	}
}

// TestCollectorBackpressure pins the window contract: while the
// collector withholds its acks, the reporter writes Window frames and
// then blocks instead of hiding more in socket buffers; releasing the
// acks drains everything without loss.
func TestCollectorBackpressure(t *testing.T) {
	release := make(chan struct{})
	sink := startBatchSink(t, release)
	rep, err := DialBatch(sink.ln.Addr().String(), ReporterConfig{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reps := batchReports(3)
	for i := 0; i < 2; i++ {
		if err := rep.Send(ctx, reps[i:i+1]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	third := make(chan error, 1)
	go func() { third <- rep.Send(ctx, reps[2:3]) }()
	select {
	case err := <-third:
		t.Fatalf("third send returned (%v) with the window full and no ack", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-third; err != nil {
		t.Fatalf("third send after release: %v", err)
	}
	if err := rep.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.stop(); len(got) != len(reps) {
		t.Errorf("collector received %d reports, want %d", len(got), len(reps))
	}
}

// TestReporterDrainContextCancel pins cancellation: with the collector
// hanging up on every frame and every reconnect failing its writes,
// Flush and Send give up when their context does and return its error.
func TestReporterDrainContextCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = ReadBatchFrame(bufio.NewReader(conn), 0)
				_ = conn.Close() // no ack
			}()
		}
	}()
	dials := 0
	rep, err := DialBatch(ln.Addr().String(), ReporterConfig{
		DialAttempts: 1 << 20, // never give up on attempts; only ctx ends it
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			dials++
			if dials == 1 {
				return raw, nil
			}
			return faultnet.Wrap(raw, faultnet.Faults{FailEvery: 1}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := batchReports(2)
	// The first connection takes the frame; the collector hangs up unacked.
	if err := rep.Send(context.Background(), reps[:1]); err != nil {
		t.Fatalf("Send = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := rep.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush = %v, want deadline exceeded", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if err := rep.Send(ctx2, reps[1:]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Send = %v, want deadline exceeded", err)
	}
	if tail := rep.DrainTail(); len(tail) != 1 {
		t.Errorf("unacked window holds %d reports, want the 1 never acked", len(tail))
	}
	_ = rep.Close()
	if err := rep.Close(); err != ErrClosed {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
	if err := rep.Send(context.Background(), reps[1:]); err != ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
}

// TestReporterDialAttemptBudget pins the per-call retry budget: a
// transport that fails every write makes Send fail after the configured
// reconnect attempts, and the batch stays with the caller.
func TestReporterDialAttemptBudget(t *testing.T) {
	sink := newBatchSink(t)
	defer sink.stop()
	addr := sink.ln.Addr().String()
	rep, err := DialBatch(addr, ReporterConfig{
		DialAttempts: 2,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   2 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(raw, faultnet.Faults{FailEvery: 1}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	err = rep.Send(context.Background(), batchReports(1))
	if err == nil || !strings.Contains(err.Error(), "reconnect attempts") {
		t.Fatalf("Send = %v, want reconnect-budget error", err)
	}
	if tail := rep.DrainTail(); len(tail) != 0 {
		t.Errorf("a failed Send left %d reports in the window, want 0", len(tail))
	}
	// Every write failed before the wire, so no frame reached the sink.
	_ = rep.Close()
	if got := sink.stop(); len(got) != 0 {
		t.Errorf("the sink received %d reports from a failed Send, want 0", len(got))
	}
}
