package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestCacheSnapshotRates(t *testing.T) {
	snap := CacheSnapshot{Hits: 800, Misses: 8}
	if snap.Lookups() != 808 {
		t.Fatalf("Lookups() = %d, want 808", snap.Lookups())
	}
}

func TestCacheSnapshotEmpty(t *testing.T) {
	var s CacheSnapshot
	if s.Lookups() != 0 {
		t.Fatalf("empty Lookups() = %d, want 0", s.Lookups())
	}
}

func TestRunMetricsWriteJSON(t *testing.T) {
	m := RunMetrics{
		Parallelism: 4,
		WallSeconds: 1.5,
		Experiments: []ExperimentMetrics{
			{ID: "fig1", Seconds: 0.25},
			{ID: "fig2", Seconds: 0.5, Err: "boom"},
		},
		Caches: map[string]CacheSnapshot{
			"device-series": {Hits: 3, Misses: 1},
		},
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back RunMetrics
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.Parallelism != 4 || back.WallSeconds != 1.5 {
		t.Fatalf("round-trip = %+v", back)
	}
	if len(back.Experiments) != 2 || back.Experiments[1].Err != "boom" {
		t.Fatalf("experiments round-trip = %+v", back.Experiments)
	}
	if back.Caches["device-series"].Misses != 1 {
		t.Fatalf("caches round-trip = %+v", back.Caches)
	}
	want := 3.0 / 4.0
	if math.Abs(m.CacheHitRate()-want) > 1e-12 {
		t.Fatalf("CacheHitRate() = %g, want %g", m.CacheHitRate(), want)
	}
}
