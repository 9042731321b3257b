// Package dataset defines the analysis-facing view of a deployment: per
// gateway, the aggregated traffic plus every device's directional series,
// together with the observation-coverage filters the paper uses to select
// cohorts (gateways with at least one observation per week, or per day).
package dataset

import (
	"math"
	"time"

	"homesight/internal/devices"
	"homesight/internal/timeseries"
)

// DeviceRecord is one device and its directional traffic.
type DeviceRecord struct {
	Device  devices.Device
	In, Out *timeseries.Series
	// Overall is In + Out, built once by NewDeviceRecord.
	Overall *timeseries.Series
}

// NewDeviceRecord returns dev's record over in and out, which must share
// one grid; Overall is their sum in a series of its own.
func NewDeviceRecord(dev devices.Device, in, out *timeseries.Series) DeviceRecord {
	overall := in.Clone()
	if err := overall.Add(out); err != nil {
		panic(err) // same grid by construction
	}
	return DeviceRecord{Device: dev, In: in, Out: out, Overall: overall}
}

// Gateway is the analysis view of one home.
type Gateway struct {
	ID string
	// Overall is the aggregated gateway traffic (Sec. 3).
	Overall *timeseries.Series
	// Devices are the per-device records.
	Devices []DeviceRecord
}

// HasWeeklyCoverage reports whether the series has at least one observation
// in every one of the first `weeks` calendar weeks — the cohort filter of
// Secs. 6.2 and 7.1.1.
func HasWeeklyCoverage(s *timeseries.Series, weeks int) bool {
	return hasCoverage(s, weeks, timeseries.Week)
}

// HasDailyCoverage reports whether the series has at least one observation
// in every one of the first `days` calendar days — the cohort filter of
// Sec. 7.1.2.
func HasDailyCoverage(s *timeseries.Series, days int) bool {
	return hasCoverage(s, days, timeseries.Day)
}

func hasCoverage(s *timeseries.Series, periods int, period time.Duration) bool {
	per := int(period / s.Step)
	for p := 0; p < periods; p++ {
		seen := false
		for i := p * per; i < (p+1)*per; i++ {
			if i >= s.Len() {
				return false
			}
			if !math.IsNaN(s.Values[i]) {
				seen = true
				break
			}
		}
		if !seen {
			return false
		}
	}
	return true
}
