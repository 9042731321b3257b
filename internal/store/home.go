package store

import (
	"context"
	"math"
	"time"

	"homesight/internal/dataset"
	"homesight/internal/devices"
	"homesight/internal/timeseries"
)

// Home reads gateway gw's minute table over [campaign start, to) — a zero
// to means the campaign end (Campaign). Every catalogued device with a
// stored sample in range comes back, in MAC order, with both directions
// reconstructed from its cumulative counters (QueryRequest.Reconstruct)
// and its type re-inferred with devices.Classify, as the wire carries only
// MAC and name. Overall is the sum of the device overalls
// (DeviceRecord.Overall) in that order: NaN exactly where no device
// reported, and a half-observed minute counts its observed direction.
// This is the one read behind the /summary endpoint, livestats.Offline
// and the experiments' store-backed homes.
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
		var res [2]*Result
		for dir := range res {
			var err error
			res[dir], err = s.Query(ctx, QueryRequest{
				Key:         Key{Gateway: gw, Device: mac, Dir: Direction(dir)},
				To:          to,
				Reconstruct: true,
			})
			if err != nil {
				return nil, err
			}
		}
		if res[0].LastIndex < 0 && res[1].LastIndex < 0 {
			continue // catalogued, but no sample in range
		}
		name := s.DeviceName(gw, mac)
		d := dataset.DeviceRecord{
			Device: devices.Device{MAC: mac, Name: name, Inferred: devices.Classify(mac, name)},
			In:     res[0].Series,
			Out:    res[1].Series,
		}
		g.Devices = append(g.Devices, d)
		var err error
		if g.Overall, err = g.Overall.Add(d.Overall()); err != nil {
			return nil, err // unreachable: every series spans [start, to) on the store grid
		}
	}
	return g, nil
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
