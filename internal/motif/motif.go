// Package motif implements Definition 5 of the paper: a motif is a set of
// calendar-aligned, non-overlapping windows (produced by the mapping W over
// one or many gateways) such that every member is very similar (cor >= φ)
// to at least one other member and reasonably similar (cor >= ¾φ) to all of
// them. Motifs whose members are mutually similar above the merge threshold
// are combined. Support is the number of member windows.
package motif

import (
	"math"
	"sort"

	"homesight/internal/corrsim"
	"homesight/internal/timeseries"
)

// DefaultPhi is the paper's individual-similarity threshold (0.8).
const DefaultPhi = 0.8

// DefaultGroupFraction is the paper's group-similarity fraction (3/4,
// giving 0.6 at φ = 0.8).
const DefaultGroupFraction = 0.75

// DefaultMergeThreshold is the cross-motif combination threshold (0.6).
const DefaultMergeThreshold = 0.6

// Instance is one candidate window: a period of one gateway's traffic.
type Instance struct {
	// GatewayID identifies the gateway the window came from.
	GatewayID string
	// Window is the aggregated traffic window (8h bins for weekly motifs,
	// 3h bins for daily motifs in the paper's best configuration).
	Window timeseries.Window
}

// Instances maps a gateway's series through the window mapping W and
// wraps every observed window as an instance, in calendar order. A window
// with no observation has no shape to compare and is dropped.
func Instances(gatewayID string, s *timeseries.Series, spec timeseries.WindowSpec) ([]Instance, error) {
	wins, err := spec.Windows(s)
	if err != nil {
		return nil, err
	}
	out := make([]Instance, 0, len(wins))
	for _, w := range wins {
		if w.Observed() {
			out = append(out, Instance{GatewayID: gatewayID, Window: w})
		}
	}
	return out, nil
}

// Motif is a discovered motif: a set of mutually similar instances.
type Motif struct {
	// ID is the motif's rank in the miner's output: by support, largest
	// first, ties in the order the motifs were discovered.
	ID int
	// Members are the instances, in insertion order.
	Members []Instance
}

// Support is the number of member windows (the paper's k).
func (m *Motif) Support() int { return len(m.Members) }

// Gateways returns the distinct gateway IDs contributing to the motif.
func (m *Motif) Gateways() map[string]int {
	out := make(map[string]int)
	for _, inst := range m.Members {
		out[inst.GatewayID]++
	}
	return out
}

// RepeatShare is the fraction of members coming from gateways that
// contribute more than one member — the "% occur within the same gateways"
// annotation of Figs. 11 and 14.
func (m *Motif) RepeatShare() float64 {
	if len(m.Members) == 0 {
		return 0
	}
	byGW := m.Gateways()
	repeat := 0
	for _, inst := range m.Members {
		if byGW[inst.GatewayID] > 1 {
			repeat++
		}
	}
	return float64(repeat) / float64(len(m.Members))
}

// MeanProfile returns the member-wise mean of max-normalized windows: each
// member is scaled to peak 1 before averaging, so the profile captures the
// shared shape rather than absolute volume.
func (m *Motif) MeanProfile() []float64 {
	if len(m.Members) == 0 {
		return nil
	}
	points := len(m.Members[0].Window.Values)
	prof := make([]float64, points)
	counted := 0
	for _, inst := range m.Members {
		vals := inst.Window.Values
		if len(vals) != points {
			continue
		}
		peak := 0.0
		for _, v := range vals {
			if !math.IsNaN(v) && v > peak {
				peak = v
			}
		}
		if peak == 0 {
			continue
		}
		for i, v := range vals {
			if !math.IsNaN(v) {
				prof[i] += v / peak
			}
		}
		counted++
	}
	if counted == 0 {
		return prof
	}
	for i := range prof {
		prof[i] /= float64(counted)
	}
	return prof
}

// Miner discovers motifs per Definition 5 under the paper's measure
// (corrsim.Default), group fraction (¾) and merge threshold (0.6).
type Miner struct {
	// Phi is the individual-similarity threshold (0 → 0.8); the group
	// threshold is ¾ of it.
	Phi float64
	// MinSupport drops motifs with fewer members from the result (0 → 2:
	// an unrepeated window is not a recurring pattern).
	MinSupport int
}

// Default is the paper's miner: φ = 0.8, group 0.6, merge 0.6.
var Default = Miner{}

func (mn Miner) phi() float64 {
	if mn.Phi == 0 { //homesight:ignore zero-sentinel — a φ of exactly 0 would admit every pair; zero safely means "default"
		return DefaultPhi
	}
	return mn.Phi
}

func (mn Miner) minSupport() int {
	if mn.MinSupport == 0 {
		return 2
	}
	return mn.MinSupport
}

// Mine discovers motifs among the instances. The construction is greedy in
// input order: each window joins the best existing motif it satisfies
// Definition 5 against (individual similarity with at least one member,
// group similarity with all), otherwise it seeds a new candidate. A final
// pass merges motifs whose members are all mutually similar above the merge
// threshold, then drops candidates below MinSupport. Every similarity is
// read off one window graph of the instances, each pair scored once.
func (mn Miner) Mine(instances []Instance) []*Motif {
	windows := make([][]float64, len(instances))
	for i, inst := range instances {
		windows[i] = inst.Window.Values
	}
	g := corrsim.Default.Graph(windows)
	phi := mn.phi()
	group := DefaultGroupFraction * phi

	// Candidates hold instance indices, in insertion order.
	var sets [][]int
	for i := range instances {
		bestIdx := -1
		bestSim := 0.0
		for si, set := range sets {
			maxSim, minSim := similarityRange(g, i, set)
			if maxSim >= phi && minSim >= group && maxSim > bestSim {
				bestIdx, bestSim = si, maxSim
			}
		}
		if bestIdx >= 0 {
			sets[bestIdx] = append(sets[bestIdx], i)
		} else {
			sets = append(sets, []int{i})
		}
	}

	sets = merge(g, sets)
	out := make([]*Motif, 0, len(sets))
	for _, set := range sets {
		if len(set) < mn.minSupport() {
			continue
		}
		m := &Motif{Members: make([]Instance, len(set))}
		for k, i := range set {
			m.Members[k] = instances[i]
		}
		out = append(out, m)
	}
	// Largest support first, stable; then assign IDs.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Support() > out[j].Support() })
	for i, m := range out {
		m.ID = i
	}
	return out
}

// similarityRange returns the max and min similarity between instance i
// and the members of a candidate.
func similarityRange(g corrsim.Graph, i int, set []int) (maxSim, minSim float64) {
	minSim = 1
	for _, mem := range set {
		s := g.At(i, mem)
		if s > maxSim {
			maxSim = s
		}
		if s < minSim {
			minSim = s
		}
	}
	return maxSim, minSim
}

// merge combines candidates whose cross-member similarities all exceed the
// merge threshold, repeating until a fixed point.
func merge(g corrsim.Graph, sets [][]int) [][]int {
	for {
		merged := false
	outer:
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				if allCrossAbove(g, sets[i], sets[j]) {
					sets[i] = append(sets[i], sets[j]...)
					sets = append(sets[:j], sets[j+1:]...)
					merged = true
					break outer
				}
			}
		}
		if !merged {
			return sets
		}
	}
}

// allCrossAbove reports whether every cross pair of the two candidates
// clears the merge threshold. Single-member candidates (unassigned windows)
// are not worth merging — they already failed to join during construction.
func allCrossAbove(g corrsim.Graph, a, b []int) bool {
	if len(a) < 2 || len(b) < 2 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if g.At(x, y) < DefaultMergeThreshold {
				return false
			}
		}
	}
	return true
}

// PerGateway returns, for each gateway, the number of distinct motifs it
// participates in (Fig. 10).
func PerGateway(motifs []*Motif) map[string]int {
	seen := make(map[string]map[int]bool)
	for _, m := range motifs {
		for _, inst := range m.Members {
			if seen[inst.GatewayID] == nil {
				seen[inst.GatewayID] = make(map[int]bool)
			}
			seen[inst.GatewayID][m.ID] = true
		}
	}
	out := make(map[string]int, len(seen))
	for gw, set := range seen {
		out[gw] = len(set)
	}
	return out
}

// SupportHistogram returns the support values of all motifs, descending
// (the raw material of Fig. 9).
func SupportHistogram(motifs []*Motif) []int {
	out := make([]int, len(motifs))
	for i, m := range motifs {
		out[i] = m.Support()
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
