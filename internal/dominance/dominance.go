// Package dominance implements Definition 4 of the paper: a device is
// φ-dominant for a gateway when the correlation similarity between its
// traffic and the aggregated gateway traffic exceeds φ. It also implements
// the two ranking baselines the paper compares against — Euclidean distance
// and absolute traffic volume — and the agreement metric of Sec. 6.2.
package dominance

import (
	"math"
	"sort"

	"homesight/internal/baselines"
	"homesight/internal/corrsim"
	"homesight/internal/devices"
	"homesight/internal/timeseries"
)

// DefaultPhi is the paper's dominance threshold.
const DefaultPhi = 0.6

// StrictPhi is the paper's tightened ablation threshold (Sec. 6.2).
const StrictPhi = 0.8

// DeviceSeries pairs a device with its traffic series on the gateway grid.
type DeviceSeries struct {
	Device devices.Device
	Series *timeseries.Series
}

// Score is one device's standing against the gateway traffic under all
// three notions of dominance.
type Score struct {
	Device devices.Device
	// Similarity is the Definition 1 correlation similarity to the gateway
	// under the detector's measure: Detail.SimilarityUnder(Measure).
	Similarity float64
	// Detail holds all three coefficients behind Similarity, whatever
	// coefficients the detector's measure selects, so any measure variant
	// can be re-derived with Detail.SimilarityUnder; Detail.Similarity
	// equals Similarity.
	Detail corrsim.Detail
	// Euclidean is the Euclidean distance to the gateway series (smaller =
	// more dominant under the baseline).
	Euclidean float64
	// Traffic is the device's total traffic volume (larger = more dominant
	// under the volume baseline).
	Traffic float64
}

// Result is the dominance analysis of one gateway.
type Result struct {
	// Dominants are the φ-dominant devices in descending similarity order
	// ("first dominant" = most similar, as in Fig. 5).
	Dominants []Score
	// All holds every device's score, in descending similarity order.
	All []Score
}

// Detector runs Definition 4.
type Detector struct {
	// Measure is the similarity measure (zero value = α 0.05).
	Measure corrsim.Measure
	// Phi is the dominance threshold (0 → DefaultPhi).
	Phi float64
}

// Default is the paper's detector (φ = 0.6, α = 0.05).
var Default = Detector{}

func (d Detector) phi() float64 {
	if d.Phi == 0 { //homesight:ignore zero-sentinel — a dominance share of 0 is vacuous; zero safely means "default"
		return DefaultPhi
	}
	return d.Phi
}

// Detect scores every device against the gateway series and returns the
// φ-dominant set. Devices are compared on the gateway's own grid; the
// caller is responsible for aligning the series (synth and dataset both
// produce aligned grids). This is the one Definition 1 / Definition 4
// pass over a home: the gateway is ranked once for every device.
func (d Detector) Detect(gateway *timeseries.Series, devs []DeviceSeries) Result {
	res := Result{All: make([]Score, 0, len(devs))}
	phi := d.phi()
	all := d.Measure
	all.Use = corrsim.UseAll
	ref := all.Against(gateway.Values)
	for _, ds := range devs {
		detail := ref.Detailed(ds.Series.Values)
		detail.Similarity = detail.SimilarityUnder(d.Measure)
		sc := Score{
			Device:     ds.Device,
			Similarity: detail.Similarity,
			Detail:     detail,
			Traffic:    ds.Series.Total(),
		}
		// For the Euclidean baseline a missing observation means zero
		// traffic, not "skip the minute", which is how baselines.Euclidean
		// reads NaN. Equal lengths by construction; an error would be a
		// caller bug — rank the device last rather than silently up.
		if eu, err := baselines.Euclidean(ds.Series.Values, gateway.Values); err == nil {
			sc.Euclidean = eu
		} else {
			sc.Euclidean = math.MaxFloat64
		}
		res.All = append(res.All, sc)
	}
	sort.SliceStable(res.All, func(i, j int) bool {
		return res.All[i].Similarity > res.All[j].Similarity
	})
	for _, sc := range res.All {
		if sc.Similarity > phi {
			res.Dominants = append(res.Dominants, sc)
		}
	}
	return res
}

// EuclideanRanking returns the device indices of scores ordered by
// ascending Euclidean distance (the baseline's "most dominant first").
func EuclideanRanking(scores []Score) []int {
	idx := identity(len(scores))
	sort.SliceStable(idx, func(a, b int) bool {
		return scores[idx[a]].Euclidean < scores[idx[b]].Euclidean
	})
	return idx
}

// TrafficRanking returns the device indices ordered by descending total
// traffic volume.
func TrafficRanking(scores []Score) []int {
	idx := identity(len(scores))
	sort.SliceStable(idx, func(a, b int) bool {
		return scores[idx[a]].Traffic > scores[idx[b]].Traffic
	})
	return idx
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Agreement counts how many of the correlation-dominant devices are ranked
// identically by a baseline ranking: the i-th dominant must be the i-th
// entry of the baseline order (the paper's "detected equally" criterion).
// It returns the number of position-matched dominants.
func Agreement(res Result, baselineOrder []int) int {
	matched := 0
	for i, dom := range res.Dominants {
		if i >= len(baselineOrder) {
			break
		}
		if res.All[baselineOrder[i]].Device.MAC == dom.Device.MAC {
			matched++
		}
	}
	return matched
}
