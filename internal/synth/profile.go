package synth

import "math"

// Archetype is a home's dominant usage rhythm. The archetypes are chosen so
// that a population of homes reproduces the motif classes the paper reports:
// heavy-weekend, everyday-evening and workday weekly motifs (Fig. 11), and
// afternoon / late-evening / morning+evening / all-day daily motifs
// (Fig. 14).
type Archetype string

// The home archetypes and their population weights.
const (
	HeavyWeekend    Archetype = "heavy_weekend"    // bandwidth concentrated on Sat/Sun
	EverydayEvening Archetype = "everyday_evening" // evening usage every day
	Workday         Archetype = "workday"          // weekday working-hours usage
	MorningEvening  Archetype = "morning_evening"  // split morning + evening bumps
	AllDay          Archetype = "all_day"          // continuous day-long usage
	Irregular       Archetype = "irregular"        // morning, afternoon and evening bumps, the same every day
)

// archetypeWeights is the population mixture. Irregular homes dilute motif
// support and stationarity counts exactly as the real deployment does.
var archetypeWeights = []struct {
	a Archetype
	w float64
}{
	{HeavyWeekend, 0.14},
	{EverydayEvening, 0.28},
	{Workday, 0.18},
	{MorningEvening, 0.12},
	{AllDay, 0.08},
	{Irregular, 0.20},
}

// hourlyShape is a 24-entry relative intensity profile (arbitrary units,
// later scaled into per-minute session-start probabilities).
type hourlyShape [24]float64

// bump adds a smooth Gaussian bump centred at hour c (may exceed 24 to wrap
// past midnight) with width w hours and height h.
func (s *hourlyShape) bump(c, w, h float64) *hourlyShape {
	for i := 0; i < 24; i++ {
		for _, shift := range []float64{-24, 0, 24} {
			d := (float64(i) + 0.5 + shift - c) / w
			s[i] += h * math.Exp(-d*d/2)
		}
	}
	return s
}

// Canonical time-of-day shapes.
var (
	shapeMorning     = (&hourlyShape{}).bump(8, 1.2, 1)
	shapeAfternoon   = (&hourlyShape{}).bump(16, 1.8, 1)
	shapeEvening     = (&hourlyShape{}).bump(20.5, 1.8, 1)
	shapeLateEvening = (&hourlyShape{}).bump(22.5, 1.6, 1)
	shapeWorkHours   = (&hourlyShape{}).bump(10.5, 1.6, 0.8).bump(14.5, 2.2, 0.9)
	shapeAllDay      = (&hourlyShape{}).bump(11, 3.2, 0.7).bump(16, 3.2, 0.8).bump(21, 2.4, 0.9)
)

// mix returns the weighted sum of shapes.
func mix(pairs ...struct {
	s *hourlyShape
	w float64
}) hourlyShape {
	var out hourlyShape
	for _, p := range pairs {
		for i := range out {
			out[i] += p.w * p.s[i]
		}
	}
	return out
}

func sw(s *hourlyShape, w float64) struct {
	s *hourlyShape
	w float64
} {
	return struct {
		s *hourlyShape
		w float64
	}{s, w}
}

// archetypeProfile holds a home archetype's weekday and weekend shapes and
// its per-day-of-week traffic envelope (Monday first).
type archetypeProfile struct {
	weekday, weekend hourlyShape
	// dayWeight scales activity per day of week, Monday..Sunday.
	dayWeight [7]float64
}

var archetypeProfiles = map[Archetype]archetypeProfile{
	HeavyWeekend: {
		weekday:   mix(sw(shapeEvening, 0.5)),
		weekend:   mix(sw(shapeAfternoon, 1.2), sw(shapeEvening, 1.4), sw(shapeMorning, 0.5)),
		dayWeight: [7]float64{0.4, 0.4, 0.4, 0.5, 0.8, 2.2, 2.0},
	},
	EverydayEvening: {
		weekday:   mix(sw(shapeEvening, 1.3), sw(shapeLateEvening, 0.6)),
		weekend:   mix(sw(shapeEvening, 1.3), sw(shapeLateEvening, 0.7)),
		dayWeight: [7]float64{1, 1, 1, 1, 1.1, 1.1, 1},
	},
	Workday: {
		weekday:   mix(sw(shapeWorkHours, 1.4), sw(shapeEvening, 0.4)),
		weekend:   mix(sw(shapeAfternoon, 0.4)),
		dayWeight: [7]float64{1.2, 1.2, 1.2, 1.2, 1.1, 0.35, 0.3},
	},
	MorningEvening: {
		weekday:   mix(sw(shapeMorning, 1.0), sw(shapeEvening, 1.1)),
		weekend:   mix(sw(shapeMorning, 0.8), sw(shapeEvening, 1.0)),
		dayWeight: [7]float64{1, 1, 1, 1, 1, 0.9, 0.9},
	},
	AllDay: {
		weekday:   mix(sw(shapeAllDay, 1.3)),
		weekend:   mix(sw(shapeAllDay, 1.1)),
		dayWeight: [7]float64{1.1, 1.1, 1.1, 1.1, 1.1, 0.9, 0.9},
	},
	Irregular: {
		weekday:   mix(sw(shapeAfternoon, 0.6), sw(shapeEvening, 0.6), sw(shapeMorning, 0.4)),
		weekend:   mix(sw(shapeAfternoon, 0.6), sw(shapeEvening, 0.6), sw(shapeMorning, 0.4)),
		dayWeight: [7]float64{1, 1, 1, 1, 1, 1, 1},
	},
}

// pickArchetype draws an archetype from the population mixture.
func pickArchetype(u float64) Archetype {
	for _, aw := range archetypeWeights {
		if u < aw.w {
			return aw.a
		}
		u -= aw.w
	}
	return Irregular
}
