package store

import (
	"context"
	"math"
	"time"

	"homesight/internal/dataset"
	"homesight/internal/devices"
	"homesight/internal/gateway"
	"homesight/internal/timeseries"
)

// Home reads gateway gw's minute table over [campaign start, to) — a zero
// to means the campaign end (Campaign). Every catalogued device with a
// stored sample in range comes back, in MAC order, with both directions
// reconstructed from its cumulative counters (reconstruct) and its type
// re-inferred with devices.Classify, as the wire carries only MAC and
// name. Overall is the records' overalls (dataset.NewDeviceRecord) added
// into one series in that order: NaN exactly where no device reported,
// and a half-observed minute counts its observed direction.
// This is the one read behind the /summary endpoint and livestats.Offline
// — each one read and one livestats.Profile pass — and the experiments'
// store-backed homes.
func (s *Store) Home(ctx context.Context, gw string, to time.Time) (*dataset.Gateway, error) {
	if to.IsZero() {
		to = s.campaignEnd()
	}
	none := make([]float64, max(0, int(to.Sub(s.cfg.Start)/s.cfg.Step)))
	for m := range none {
		none[m] = math.NaN()
	}
	g := &dataset.Gateway{ID: gw, Overall: timeseries.New(s.cfg.Start, s.cfg.Step, none)}
	for _, mac := range s.Devices(gw) {
		var ser [2]*timeseries.Series
		seen := false
		for dir := range ser {
			var last int
			var err error
			ser[dir], last, err = s.reconstruct(ctx, Key{Gateway: gw, Device: mac, Dir: Direction(dir)}, to)
			if err != nil {
				return nil, err
			}
			seen = seen || last >= 0
		}
		if !seen {
			continue // catalogued, but no sample in range
		}
		name := s.DeviceName(gw, mac)
		d := dataset.NewDeviceRecord(devices.Device{MAC: mac, Name: name, Inferred: devices.Classify(mac, name)}, ser[0], ser[1])
		g.Devices = append(g.Devices, d)
		if err := g.Overall.Add(d.Overall); err != nil {
			return nil, err // unreachable: every series spans [start, to) on the store grid
		}
	}
	return g, nil
}

// reconstruct replays k's raw counters over [campaign start, to) through
// gateway.Meter into a per-minute delta series on the store grid —
// byte-for-byte the reconstruction gateway.Recorder performs live:
// wrap-aware differencing, a meter reset across reporting gaps, NaN for
// unobserved minutes. The series covers the range exactly; last is the
// grid index of the last stored point in it, -1 when none.
func (s *Store) reconstruct(ctx context.Context, k Key, to time.Time) (ser *timeseries.Series, last int, err error) {
	stepSec := int64(s.cfg.Step / time.Second)
	fromSec := s.cfg.Start.Unix()
	steps := int((to.Unix() - fromSec) / stepSec)
	vals := make([]float64, 0, max(0, steps))
	var m gateway.Meter
	last = -1
	it := s.iter(k, fromSec, to.Unix())
	for seen := 0; it.Next(); seen++ {
		if seen%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		p := it.At()
		idx := int((p.Ts - fromSec) / stepSec)
		if last >= 0 && idx != last+1 {
			m.Reset()
		}
		for len(vals) <= idx {
			vals = append(vals, math.NaN())
		}
		if d, ok := m.Delta(p.Val); ok {
			vals[idx] = float64(d)
		}
		last = idx
	}
	if err := it.Err(); err != nil {
		return nil, 0, err
	}
	for len(vals) < steps {
		vals = append(vals, math.NaN())
	}
	return timeseries.New(s.cfg.Start, s.cfg.Step, vals), last, nil
}

// campaignMinutes returns one past the highest stored minute index. The
// walk over every series' watermark runs once per Generation; ingest takes
// no part in the memo.
func (s *Store) campaignMinutes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.Generation()
	if s.campaign.valid && s.campaign.gen == gen {
		return s.campaign.minutes
	}
	startSec := s.cfg.Start.Unix()
	stepSec := int64(s.cfg.Step / time.Second)
	minutes := 0
	s.eachWatermark(func(_ Key, ts int64) {
		if ts < startSec {
			return
		}
		if m := int((ts-startSec)/stepSec) + 1; m > minutes {
			minutes = m
		}
	})
	s.campaign.valid, s.campaign.gen, s.campaign.minutes = true, gen, minutes
	return minutes
}
