package query

import (
	"context"
	"fmt"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/store"
	"homesight/internal/synth"
)

// benchStore ingests 2 gateways x 8 devices x 1 week of minutes with
// several flushed segments.
func benchStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(store.Config{
		Dir: t.TempDir(), Start: testStart,
		Sync: store.SyncNever, FlushPoints: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	const minutes = 7 * 24 * 60
	for gi := 0; gi < 2; gi++ {
		em := gateway.NewEmitter(fmt.Sprintf("gw%03d", gi+1))
		for m := 0; m < minutes; m++ {
			var dm []gateway.DeviceMinute
			for d := 0; d < 8; d++ {
				in, out := float64(800+60*d+m%13), float64(120+m%9)
				if m%1440 >= 1200 { // evening burst
					in *= 30
				}
				dm = append(dm, gateway.DeviceMinute{
					MAC:     fmt.Sprintf("02:00:00:00:0%d:0%d", gi, d),
					Name:    fmt.Sprintf("bench-%d-%d", gi, d),
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

// keyOf rotates over benchStore's 2 x 8 x 2 series.
func keyOf(n int) store.Key {
	return store.Key{
		Gateway: fmt.Sprintf("gw%03d", n%2+1),
		Device:  fmt.Sprintf("02:00:00:00:0%d:0%d", n%2, n%8),
		Dir:     store.Direction(n % 2),
	}
}

// An 8h whole-campaign query is answered from the precomputed rollup
// blocks alone: the block-read counters must show zero raw decodes.
func TestRollupQueryDecodesNoRawBlock(t *testing.T) {
	s := benchStore(t)
	before := s.Stats()
	for n := 0; n < 32; n++ {
		if _, err := s.Query(context.Background(), store.QueryRequest{Key: keyOf(n), Gran: store.Gran8h}); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Stats()
	if raw := after.RawBlockReads - before.RawBlockReads; raw != 0 {
		t.Errorf("8h-downsampled queries decoded %d raw minute blocks, want 0", raw)
	}
	if after.RollupBlockReads == before.RollupBlockReads {
		t.Error("8h-downsampled queries decoded no rollup block")
	}
}

// A binned URL set that fits the LRU is served from it once warm.
func TestWarmBinnedURLsHitCache(t *testing.T) {
	a := New(Config{Store: benchStore(t)})
	h := a.Handler()
	const urls, rounds = 16, 4
	for n := 0; n < urls*rounds; n++ {
		k := keyOf(n % urls)
		url := fmt.Sprintf("/api/v1/series?gw=%s&device=%s&dir=%s&gran=8h&agg=sum", k.Gateway, k.Device, k.Dir)
		fetch(t, h, url)
	}
	hits, misses := a.m.hits.Value(), a.m.misses.Value()
	if rate := float64(hits) / float64(hits+misses); rate < 0.5 {
		t.Errorf("warm cache hit rate %.3f (%d hits, %d misses) below 0.5", rate, hits, misses)
	}
}

// BenchmarkSummaryMiss is the work of one /summary cache miss: one
// store.Home read of a stored home over the whole campaign and one
// livestats.Profile pass over its minute table (synth home gw000 of a
// 2-home × 4-week campaign: 13 devices, 40 320 minutes). B/op is the
// number to watch: each device series of the home is 322 KB.
func BenchmarkSummaryMiss(b *testing.B) {
	dir := b.TempDir()
	persistCampaign(b, dir, synth.Config{Homes: 2, Weeks: 4, Seed: 20140317})
	s, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := s.Close(); err != nil {
			b.Errorf("close store: %v", err)
		}
	})
	ctx, gw := context.Background(), s.Gateways()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		home, err := s.Home(ctx, gw, time.Time{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := livestats.Profile(home); err != nil {
			b.Fatal(err)
		}
	}
}
