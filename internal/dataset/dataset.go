// Package dataset defines the analysis-facing view of a deployment: per
// gateway, the aggregated traffic plus every device's directional series,
// together with the observation-coverage filters the paper uses to select
// cohorts (gateways with at least one observation per week, or per day),
// and CSV persistence for interoperability.
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"homesight/internal/devices"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

// DeviceRecord is one device and its directional traffic.
type DeviceRecord struct {
	Device  devices.Device
	In, Out *timeseries.Series
}

// Overall returns the device's total (in + out) series.
func (d DeviceRecord) Overall() *timeseries.Series {
	sum, err := d.In.Add(d.Out)
	if err != nil {
		panic(err) // same grid by construction
	}
	return sum
}

// Gateway is the analysis view of one home.
type Gateway struct {
	ID string
	// Overall is the aggregated gateway traffic (Sec. 3).
	Overall *timeseries.Series
	// Devices are the per-device records.
	Devices []DeviceRecord
	// Residents is the surveyed number of residents; 0 when not surveyed.
	Residents int
}

// FromSynthHome converts a generated home into a Gateway, truncated to the
// first `weeks` weeks (0 = full campaign). surveyed controls whether the
// ground-truth resident count is exposed, mirroring the paper's 49-home
// survey subset.
func FromSynthHome(h *synth.Home, weeks int, surveyed bool) *Gateway {
	cfg := timeRange(h, weeks)
	g := &Gateway{ID: h.ID}
	g.Overall = h.Overall().Between(cfg.from, cfg.to)
	for _, dt := range h.Traffic() {
		g.Devices = append(g.Devices, DeviceRecord{
			Device: dt.Spec.Device,
			In:     dt.In.Between(cfg.from, cfg.to),
			Out:    dt.Out.Between(cfg.from, cfg.to),
		})
	}
	if surveyed {
		g.Residents = h.Residents
	}
	return g
}

type span struct{ from, to time.Time }

func timeRange(h *synth.Home, weeks int) span {
	start := h.Overall().Start
	if weeks <= 0 {
		return span{start, h.Overall().End()}
	}
	return span{start, start.Add(time.Duration(weeks) * timeseries.Week)}
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

// csvHeader is the on-disk schema: one row per device-minute.
var csvHeader = []string{"minute", "timestamp", "mac", "name", "type", "in_bytes", "out_bytes"}

// WriteCSV serializes a gateway's device traffic as CSV. Missing
// observations are written as empty fields.
func WriteCSV(w io.Writer, g *Gateway) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, dr := range g.Devices {
		for m := 0; m < dr.In.Len(); m++ {
			iv, ov := dr.In.Values[m], dr.Out.Values[m]
			if math.IsNaN(iv) && math.IsNaN(ov) {
				continue // disconnected: no report row, like the real feed
			}
			row := []string{
				strconv.Itoa(m),
				dr.In.TimeAt(m).Format(time.RFC3339),
				dr.Device.MAC,
				dr.Device.Name,
				string(dr.Device.Inferred),
				formatBytes(iv),
				formatBytes(ov),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatBytes(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Row is one device-minute observation as serialized by WriteCSV. In and
// Out are NaN when the corresponding field is empty (unobserved).
type Row struct {
	Minute    int
	MAC, Name string
	Type      devices.Type
	In, Out   float64
}

// ScanCSV streams WriteCSV output row by row into fn without
// materializing any series — the constant-memory primitive under
// ReadCSV, usable directly when a consumer only needs a single pass
// (totals, filters, format conversion). n bounds the minute index; a
// row at or past it is rejected. An error from fn aborts the scan.
//
// Rows with an empty type column — the homestore `export` format, whose
// wire reports carry only MAC and name — get their type re-inferred
// with devices.Classify, so the exports of both `homesight simulate` and
// `homesight store export` parse into identical records.
func ScanCSV(r io.Reader, n int, fn func(Row) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("dataset: reading header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return fmt.Errorf("dataset: unexpected header %v", header)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var row Row
		m, err := strconv.Atoi(rec[0])
		if err != nil || m < 0 || m >= n {
			return fmt.Errorf("dataset: bad minute index %q", rec[0])
		}
		row.Minute = m
		row.MAC, row.Name = rec[2], rec[3]
		if rec[4] == "" {
			row.Type = devices.Classify(row.MAC, row.Name)
		} else {
			row.Type = devices.Type(rec[4])
		}
		if row.In, err = parseBytes(rec[5]); err != nil {
			return err
		}
		if row.Out, err = parseBytes(rec[6]); err != nil {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// ReadCSV reconstructs a gateway from WriteCSV output. The id is not part
// of the CSV and must be supplied; n is the expected series length in
// minutes (rows beyond it are rejected).
func ReadCSV(r io.Reader, id string, start time.Time, n int) (*Gateway, error) {
	g := &Gateway{ID: id}
	byMAC := make(map[string]int)
	err := ScanCSV(r, n, func(row Row) error {
		idx, ok := byMAC[row.MAC]
		if !ok {
			idx = len(g.Devices)
			byMAC[row.MAC] = idx
			g.Devices = append(g.Devices, DeviceRecord{
				Device: devices.Device{MAC: row.MAC, Name: row.Name, Inferred: row.Type},
				In:     nanSeries(start, n),
				Out:    nanSeries(start, n),
			})
		}
		dr := g.Devices[idx]
		dr.In.Values[row.Minute] = row.In
		dr.Out.Values[row.Minute] = row.Out
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.Overall = rebuildOverall(g, start, n)
	return g, nil
}

func parseBytes(s string) (float64, error) {
	if s == "" {
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func nanSeries(start time.Time, n int) *timeseries.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.NaN()
	}
	return timeseries.New(start, time.Minute, vals)
}

// rebuildOverall recomputes the aggregate from the device records.
func rebuildOverall(g *Gateway, start time.Time, n int) *timeseries.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for _, dr := range g.Devices {
		for m := 0; m < n; m++ {
			iv, ov := dr.In.Values[m], dr.Out.Values[m]
			if math.IsNaN(iv) && math.IsNaN(ov) {
				continue
			}
			// A half-observed row (one direction empty) still counts the
			// observed direction instead of poisoning the minute with NaN.
			if math.IsNaN(vals[m]) {
				vals[m] = 0
			}
			if !math.IsNaN(iv) {
				vals[m] += iv
			}
			if !math.IsNaN(ov) {
				vals[m] += ov
			}
		}
	}
	return timeseries.New(start, time.Minute, vals)
}
