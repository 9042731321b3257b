package query

import (
	"math"
	"net/http"

	"homesight/internal/livestats"
	"homesight/internal/stats/corr"
)

// LiveSource serves livestats snapshots: a single-node collector's
// *livestats.Tracker satisfies it directly, and fleet.Fleet fans the
// lookup out to the shard owning the gateway. The query tier never
// touches raw store blocks on this path — snapshots are assembled from
// the O(1) operator state.
type LiveSource interface {
	// LiveHomes returns the tracked gateway IDs, sorted.
	LiveHomes() []string
	// LiveSnapshot returns the live analysis of one home; false for an
	// untracked gateway.
	LiveSnapshot(gw string) (*livestats.HomeSnapshot, bool)
}

// LiveCoeff is the wire form of a corr.Result. Coeff is null when the
// coefficient is undefined (a degenerate stream — constant or too
// short), which the batch pipeline spells NaN; JSON has no NaN.
type LiveCoeff struct {
	Coeff  *float64 `json:"coeff"`
	PValue float64  `json:"p"`
	N      int      `json:"n"`
}

func liveCoeff(r corr.Result) LiveCoeff {
	lc := LiveCoeff{PValue: r.PValue, N: r.N}
	if !math.IsNaN(r.Coeff) {
		c := r.Coeff
		lc.Coeff = &c
	}
	return lc
}

// LiveDevice is one device row of /api/v1/homes/{gw}/live.
type LiveDevice struct {
	MAC  string `json:"mac"`
	Name string `json:"name,omitempty"`
	Type string `json:"type"`
	// Pairs counts the observed (device, aggregate) minute pairs behind
	// the coefficients.
	Pairs int64 `json:"pairs"`
	// The three Definition 1 coefficients and the gated similarity.
	Pearson    LiveCoeff `json:"pearson"`
	Spearman   LiveCoeff `json:"spearman"`
	Kendall    LiveCoeff `json:"kendall"`
	Similarity float64   `json:"similarity"`
	// Dominant is the Definition 4 verdict at the tracker's φ.
	Dominant bool `json:"dominant"`
	// Euclidean and Traffic are the Sec. 6.2 baseline scores.
	Euclidean float64 `json:"euclidean"`
	Traffic   float64 `json:"traffic"`
	// TauIn/TauOut/Tau and Group are the Sec. 6.1 background threshold.
	TauIn  float64 `json:"tau_in"`
	TauOut float64 `json:"tau_out"`
	Tau    float64 `json:"tau"`
	Group  string  `json:"group"`
	// RankSampled flags estimate (vs exact) mode for the rank
	// coefficients.
	RankSampled bool `json:"rank_sampled,omitempty"`
}

// LiveData is the /api/v1/homes/{gw}/live payload: the home's devices
// in descending similarity order, dominants filtered at φ.
type LiveData struct {
	Gateway   string       `json:"gateway"`
	Reports   int64        `json:"reports"`
	Minutes   int64        `json:"minutes"`
	Phi       float64      `json:"phi"`
	Devices   []LiveDevice `json:"devices"`
	Dominants []string     `json:"dominants"`
}

func (a *API) handleLive(r *http.Request) (any, error) {
	gw := r.PathValue("gw")
	snap, ok := a.live.LiveSnapshot(gw)
	if !ok {
		return nil, notFoundf("no live state for gateway %q", gw)
	}
	data := LiveData{
		Gateway:   snap.Gateway,
		Reports:   snap.Reports,
		Minutes:   snap.Minutes,
		Phi:       snap.Phi,
		Devices:   make([]LiveDevice, 0, len(snap.Devices)),
		Dominants: []string{},
	}
	for _, d := range snap.Devices {
		data.Devices = append(data.Devices, LiveDevice{
			MAC:         d.Device.MAC,
			Name:        d.Device.Name,
			Type:        string(d.Device.Inferred),
			Pairs:       d.Pairs,
			Pearson:     liveCoeff(d.Pearson),
			Spearman:    liveCoeff(d.Spearman),
			Kendall:     liveCoeff(d.Kendall),
			Similarity:  d.Similarity,
			Dominant:    d.Dominant,
			Euclidean:   d.Euclidean,
			Traffic:     d.Traffic,
			TauIn:       d.Threshold.TauIn,
			TauOut:      d.Threshold.TauOut,
			Tau:         d.Tau,
			Group:       string(d.Group),
			RankSampled: d.RankSampled,
		})
		if d.Dominant {
			data.Dominants = append(data.Dominants, d.Device.MAC)
		}
	}
	return data, nil
}
