package synth

import (
	"math"

	"homesight/internal/timeseries"
)

// Plan capacity caps, bytes per minute. Real traffic is bounded by the
// access link (Sec. 3: 100/10 Mbps fiber, 24/1 Mbps ADSL); the caps keep
// synthetic bursts inside physically plausible ranges.
const (
	fiberInCap  = 100e6 / 8 * 60 / 10 // conservative: links are never saturated for a full minute
	fiberOutCap = 10e6 / 8 * 60 / 10
	adslInCap   = 24e6 / 8 * 60 / 10
	adslOutCap  = 1e6 / 8 * 60 / 10
)

// Traffic generates (or returns the cached) per-device minute traffic of
// the home.
func (h *Home) Traffic() []*DeviceTraffic {
	if h.traffic == nil {
		h.traffic = make([]*DeviceTraffic, len(h.Devices))
		for i, spec := range h.Devices {
			h.traffic[i] = h.generateDevice(spec)
		}
	}
	return h.traffic
}

// Overall returns the aggregated gateway traffic: the sum of incoming and
// outgoing traffic over all devices, NaN where the gateway was not
// reporting (Sec. 3's "aggregated gateway traffic").
func (h *Home) Overall() *timeseries.Series {
	if h.overall != nil {
		return h.overall
	}
	n := h.cfg.Minutes()
	vals := make([]float64, n)
	for m := range vals {
		if h.offline[m] {
			vals[m] = math.NaN()
		}
	}
	for _, dt := range h.Traffic() {
		for m := 0; m < n; m++ {
			if h.offline[m] {
				continue
			}
			iv, ov := dt.In.Values[m], dt.Out.Values[m]
			if !math.IsNaN(iv) {
				vals[m] += iv
			}
			if !math.IsNaN(ov) {
				vals[m] += ov
			}
		}
	}
	h.overall = timeseries.New(h.cfg.Start, timeseries.Minute, vals)
	return h.overall
}

// generateDevice synthesizes one device's minute-level in/out traffic.
//
// The model is an on/off session process modulated by the home archetype's
// time-of-day shape, plus per-class background chatter:
//
//   - Session starts are Bernoulli per minute with probability proportional
//     to the archetype intensity at that time of day, the device's activity
//     scale, and the day's regularity jitter.
//   - Session lengths are Pareto (heavy-tailed human activity, Sec. 2) and
//     session rates lognormal — together they produce the Zipfian value
//     distribution of Fig. 1.
//   - Background chatter is lognormal around the device's personal level;
//     its boxplot upper whisker is the τ threshold of Sec. 6.1.
//   - Incoming/outgoing are coupled shares of the same activity, yielding
//     the strong in/out correlation of Sec. 4.1 (mean 0.92).
func (h *Home) generateDevice(s *DeviceSpec) *DeviceTraffic {
	rng := newRNG(h.cfg.Seed, 2, uint64(h.Index), s.idx)
	b := classBehaviours[s.Class]
	n := h.cfg.Minutes()
	days := n / (24 * 60)
	prof := archetypeProfiles[h.Archetype]

	// Per-day regularity modulation: irregular homes toggle device-days on
	// and off and jitter the amplitude; clockwork homes barely move.
	irr := 1 - h.Regularity
	dayMult := make([]float64, days)
	silenceP := irr * 0.30
	if s.daySilence > silenceP {
		silenceP = s.daySilence
	}
	for d := range dayMult {
		if rng.Float64() < silenceP {
			continue // silent day
		}
		dayMult[d] = math.Exp(irr*1.1*rng.NormFloat64()) * h.dayDrift[d]
	}
	// Device-level rate personality.
	rateMedian := lognormal(rng, b.rateMedian, 0.5) * math.Sqrt(s.scale) * s.rateBoost

	inCap, outCap := fiberInCap, fiberOutCap
	if !h.Fiber {
		inCap, outCap = adslInCap, adslOutCap
	}

	inVals := make([]float64, n)
	outVals := make([]float64, n)

	sessLeft := 0
	sessRate := 0.0
	sessInShare := 0.0
	for m := 0; m < n; m++ {
		if h.offline[m] || m < s.joinMin || m >= s.leaveMin {
			inVals[m] = math.NaN()
			outVals[m] = math.NaN()
			sessLeft = 0
			continue
		}
		day := m / (24 * 60)
		dow := day % 7 // 0 = Monday: campaigns start on Mondays
		// Personal phase shift of the time-of-day profile.
		hf := float64(m%(24*60))/60 - s.phaseHours
		hour := int(hf)
		for hour < 0 {
			hour += 24
		}
		hour %= 24
		var shape *hourlyShape
		if dow >= 5 {
			shape = &prof.weekend
		} else {
			shape = &prof.weekday
		}
		intensity := shape[hour] * prof.dayWeight[dow] * dayMult[day]

		active := 0.0
		if sessLeft > 0 {
			active = sessRate * math.Exp(0.3*rng.NormFloat64())
			sessLeft--
		} else if intensity > 0 {
			p := b.startBase * s.scale * intensity
			if p > 0.3 {
				p = 0.3
			}
			if rng.Float64() < p {
				sessLeft = int(pareto(rng, b.sessXm, b.sessAlpha, b.sessCap*s.sessBoost))
				sessRate = lognormal(rng, rateMedian, b.rateSigma)
				if rng.Float64() < b.uploadShareP {
					sessInShare = 0.15 + 0.15*rng.Float64()
				} else {
					sessInShare = clamp(b.inShareDown+0.06*rng.NormFloat64(), 0.5, 0.98)
				}
				active = sessRate * math.Exp(0.3*rng.NormFloat64())
				sessLeft--
			}
		}

		// Background chatter.
		bg := 0.0
		if rng.Float64() < s.chatterP {
			bg = lognormal(rng, s.bgMedian, s.bgSigma)
		} else if rng.Float64() < 0.5 {
			bg = rng.Float64() * 60
		}

		inV := active*sessInShare + bg*s.inShareBG
		outV := active*(1-sessInShare) + bg*(1-s.inShareBG)
		if inV > inCap {
			inV = inCap
		}
		if outV > outCap {
			outV = outCap
		}
		inVals[m] = math.Round(inV)
		outVals[m] = math.Round(outV)
	}

	return &DeviceTraffic{
		Spec: s,
		In:   timeseries.New(h.cfg.Start, timeseries.Minute, inVals),
		Out:  timeseries.New(h.cfg.Start, timeseries.Minute, outVals),
	}
}
