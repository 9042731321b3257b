// Package timeseries provides the regular time-series representation used
// across homesight: a value per fixed step starting at an anchor time, with
// NaN marking missing observations. It implements the paper's calendar
// machinery — time binning (aggregation), the non-overlapping window mapping
// W of Definitions 2/3/5, and day/week alignment with configurable phase
// (e.g. "8-hour windows starting at 2am").
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Day and Week are the calendar periods the paper's daily and weekly
// patterns are framed on.
const (
	Minute = time.Minute
	Day    = 24 * time.Hour
	Week   = 7 * Day
)

// ErrStep is returned for non-positive or incompatible steps.
var ErrStep = errors.New("timeseries: invalid step")

// ErrRange is returned for invalid index or time ranges.
var ErrRange = errors.New("timeseries: invalid range")

// Series is a regularly sampled time series. Values[i] is the observation
// for the interval [Start + i*Step, Start + (i+1)*Step). Missing
// observations are NaN.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// New returns a Series with the given anchor, step and values. It panics on
// a non-positive step, which is always a programming error.
func New(start time.Time, step time.Duration, values []float64) *Series {
	if step <= 0 {
		panic("timeseries: non-positive step")
	}
	return &Series{Start: start.UTC(), Step: step, Values: values}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// End returns the exclusive end time of the series.
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Values)) * s.Step)
}

// TimeAt returns the start time of observation i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the observation index containing time t, which may be out
// of range; callers check against Len.
func (s *Series) IndexOf(t time.Time) int {
	return int(t.Sub(s.Start) / s.Step)
}

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	vals := make([]float64, len(s.Values))
	copy(vals, s.Values)
	return &Series{Start: s.Start, Step: s.Step, Values: vals}
}

// Slice returns the sub-series of observations [i, j). It shares no memory
// with the receiver.
func (s *Series) Slice(i, j int) (*Series, error) {
	if i < 0 || j > len(s.Values) || i > j {
		return nil, fmt.Errorf("%w: [%d, %d) of %d", ErrRange, i, j, len(s.Values))
	}
	vals := make([]float64, j-i)
	copy(vals, s.Values[i:j])
	return &Series{Start: s.TimeAt(i), Step: s.Step, Values: vals}, nil
}

// Between returns the sub-series covering [from, to), clipped to the series
// extent.
func (s *Series) Between(from, to time.Time) *Series {
	i := s.IndexOf(from)
	j := s.IndexOf(to)
	if i < 0 {
		i = 0
	}
	if j > len(s.Values) {
		j = len(s.Values)
	}
	if i >= j {
		return &Series{Start: from.UTC(), Step: s.Step}
	}
	sub, _ := s.Slice(i, j)
	return sub
}

// ObservedCount returns the number of non-missing observations.
func (s *Series) ObservedCount() int {
	n := 0
	for _, v := range s.Values {
		if !math.IsNaN(v) {
			n++
		}
	}
	return n
}

// FillMissing returns a copy with NaNs replaced by fill. Gateway counters
// report zero traffic when idle, so fill = 0 is the domain convention.
func (s *Series) FillMissing(fill float64) *Series {
	out := s.Clone()
	for i, v := range out.Values {
		if math.IsNaN(v) {
			out.Values[i] = fill
		}
	}
	return out
}

// Aggregate sums the series into non-overlapping bins of the given width,
// starting at the series anchor. The bin width must be a positive multiple
// of the step. NaNs are ignored within a bin; a bin with no observed values
// is NaN. The paper aggregates byte counters, whose natural combinator is
// the sum.
func (s *Series) Aggregate(bin time.Duration) (*Series, error) {
	if bin <= 0 || bin%s.Step != 0 {
		return nil, fmt.Errorf("%w: bin %v not a multiple of step %v", ErrStep, bin, s.Step)
	}
	per := int(bin / s.Step)
	nBins := (len(s.Values) + per - 1) / per
	out := make([]float64, nBins)
	for b := 0; b < nBins; b++ {
		sum := 0.0
		seen := false
		for i := b * per; i < (b+1)*per && i < len(s.Values); i++ {
			if !math.IsNaN(s.Values[i]) {
				sum += s.Values[i]
				seen = true
			}
		}
		if seen {
			out[b] = sum
		} else {
			out[b] = math.NaN()
		}
	}
	return &Series{Start: s.Start, Step: bin, Values: out}, nil
}

// Threshold returns a copy in which every value strictly below tau is set
// to zero — the paper's background-traffic removal (Sec. 6.1). NaNs are
// preserved.
func (s *Series) Threshold(tau float64) *Series {
	out := s.Clone()
	for i, v := range out.Values {
		if !math.IsNaN(v) && v < tau {
			out.Values[i] = 0
		}
	}
	return out
}

// Add adds t into s in place (into s.Clone() to keep s); both must share
// anchor, step and length, else s is untouched. NaN + x = x (a missing
// device observation contributes no traffic); NaN + NaN = NaN.
func (s *Series) Add(t *Series) error {
	if !s.Start.Equal(t.Start) || s.Step != t.Step || len(s.Values) != len(t.Values) {
		return fmt.Errorf("%w: incompatible series", ErrRange)
	}
	for i, v := range t.Values {
		switch {
		case math.IsNaN(v):
			// keep s.Values[i]
		case math.IsNaN(s.Values[i]):
			s.Values[i] = v
		default:
			s.Values[i] += v
		}
	}
	return nil
}

// Total returns the sum of all observed values — the series' total traffic.
func (s *Series) Total() float64 {
	sum := 0.0
	for _, v := range s.Values {
		if !math.IsNaN(v) {
			sum += v
		}
	}
	return sum
}
