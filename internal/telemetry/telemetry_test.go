package telemetry

import (
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/synth"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

type motifSummary struct {
	support  int
	gateways int
}

// buildReports emits a deterministic campaign: `days` full days of
// per-minute reports for one device with an evening activity pattern.
func buildReports(gatewayID string, days int) []gateway.Report {
	em := gateway.NewEmitter(gatewayID)
	var reps []gateway.Report
	for d := 0; d < days; d++ {
		for m := 0; m < 24*60; m++ {
			ts := mon.AddDate(0, 0, d).Add(time.Duration(m) * time.Minute)
			traffic := 120.0 // background chatter
			if m/60 >= 19 && m/60 < 23 {
				traffic = 2e6 // evening activity
			}
			reps = append(reps, em.Emit(ts, []gateway.DeviceMinute{
				{MAC: "m1", InBytes: traffic, OutBytes: traffic / 10},
			}))
		}
	}
	return reps
}

func TestStreamingMotifsFindsRecurringDays(t *testing.T) {
	// Two gateways: one repeats an evening pattern daily, one is quiet.
	// Streamed day windows should collapse into one motif for the regular
	// gateway.
	sm := &StreamingMotifs{}
	em := gateway.NewEmitter("gwA")
	days := 5
	for d := 0; d < days; d++ {
		for m := 0; m < 24*60; m++ {
			ts := mon.AddDate(0, 0, d).Add(time.Duration(m) * time.Minute)
			hour := m / 60
			traffic := 100.0 // background
			if hour >= 19 && hour < 23 {
				traffic = 2e6 // evening activity
			}
			rep := em.Emit(ts, []gateway.DeviceMinute{{MAC: "m1", InBytes: traffic, OutBytes: traffic / 10}})
			sm.Feed(rep)
		}
	}
	sm.Flush()
	motifs := sm.Motifs()
	if len(motifs) != 1 {
		t.Fatalf("streaming motifs = %d, want 1", len(motifs))
	}
	if motifs[0].Support() != days {
		t.Errorf("support = %d, want %d", motifs[0].Support(), days)
	}
	if motifs[0].RepeatShare() != 1 {
		t.Errorf("repeat share = %g, want 1 (single gateway)", motifs[0].RepeatShare())
	}
}

func TestStreamingFromSynthHome(t *testing.T) {
	// Integration with the generator: stream a clockwork home; it should
	// produce at least one repeated daily motif.
	cfg := synth.DefaultConfig()
	cfg.Homes = 30
	cfg.Weeks = 2
	dep := synth.NewDeployment(cfg)
	var h *synth.Home
	for i := 0; i < dep.NumHomes(); i++ {
		cand := dep.Home(i)
		if cand.Regularity > 0.9 && cand.Overall().ObservedCount() > cfg.Minutes()*9/10 &&
			(cand.Archetype == synth.EverydayEvening || cand.Archetype == synth.AllDay) {
			h = cand
			break
		}
	}
	if h == nil {
		t.Skip("no clockwork home in this population slice")
	}
	sm := &StreamingMotifs{}
	em := gateway.NewEmitter(h.ID)
	traffic := h.Traffic()
	for m := 0; m < cfg.Minutes(); m++ {
		var dms []gateway.DeviceMinute
		for _, dt := range traffic {
			dms = append(dms, gateway.DeviceMinute{
				MAC: dt.Spec.Device.MAC, InBytes: dt.In.Values[m], OutBytes: dt.Out.Values[m],
			})
		}
		rep := em.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), dms)
		if len(rep.Devices) == 0 {
			continue
		}
		sm.Feed(rep)
	}
	sm.Flush()
	motifs := sm.Motifs()
	best := 0
	for _, m := range motifs {
		if m.Support() > best {
			best = m.Support()
		}
	}
	if best < 3 {
		t.Errorf("best streamed motif support = %d, want >= 3 for a clockwork home", best)
	}
}
