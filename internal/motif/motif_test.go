package motif

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"homesight/internal/corrsim"
	"homesight/internal/timeseries"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

// inst builds an instance from a gateway ID, day ordinal and values.
func inst(gw string, day int, vals []float64) Instance {
	return Instance{
		GatewayID: gw,
		Window:    timeseries.Window{Start: mon.AddDate(0, 0, day), Values: vals, Ordinal: day},
	}
}

// eveningShape returns an 8-point daily window with an evening bump, noised.
func eveningShape(rng *rand.Rand, noise float64) []float64 {
	base := []float64{100, 50, 200, 400, 600, 900, 60000, 45000}
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * math.Exp(noise*rng.NormFloat64())
	}
	return out
}

// morningShape has its bump in the morning bins.
func morningShape(rng *rand.Rand, noise float64) []float64 {
	base := []float64{100, 50, 55000, 48000, 800, 500, 300, 150}
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * math.Exp(noise*rng.NormFloat64())
	}
	return out
}

func TestMineGroupsSimilarWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var insts []Instance
	for d := 0; d < 10; d++ {
		insts = append(insts, inst(fmt.Sprintf("gw%02d", d%3), d, eveningShape(rng, 0.08)))
	}
	for d := 10; d < 16; d++ {
		insts = append(insts, inst(fmt.Sprintf("gw%02d", d%3), d, morningShape(rng, 0.08)))
	}
	motifs := Default.Mine(insts)
	if len(motifs) != 2 {
		t.Fatalf("got %d motifs, want 2 (evening + morning)", len(motifs))
	}
	if motifs[0].Support() != 10 || motifs[1].Support() != 6 {
		t.Errorf("supports = %d, %d; want 10, 6", motifs[0].Support(), motifs[1].Support())
	}
	// IDs assigned by descending support.
	if motifs[0].ID != 0 || motifs[1].ID != 1 {
		t.Errorf("IDs = %d, %d", motifs[0].ID, motifs[1].ID)
	}
}

func TestMineKeepsDissimilarWindowsApart(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var insts []Instance
	// Random windows: no repeated structure → no motifs of support >= 2
	// (or at most a few accidental pairs).
	for d := 0; d < 20; d++ {
		vals := make([]float64, 8)
		for i := range vals {
			vals[i] = rng.ExpFloat64() * 1e5
		}
		insts = append(insts, inst("gw00", d, vals))
	}
	motifs := Default.Mine(insts)
	total := 0
	for _, m := range motifs {
		total += m.Support()
	}
	if total > 8 {
		t.Errorf("%d/20 random windows landed in motifs, want few", total)
	}
}

func TestMineDefinitionProperties(t *testing.T) {
	// Verify Definition 5 on the output: every member has a close peer
	// (cor >= φ) and clears the group bound (cor >= ¾φ) with every other.
	rng := rand.New(rand.NewSource(3))
	var insts []Instance
	for d := 0; d < 12; d++ {
		insts = append(insts, inst("gw00", d, eveningShape(rng, 0.15)))
	}
	for d := 12; d < 20; d++ {
		insts = append(insts, inst("gw01", d, morningShape(rng, 0.15)))
	}
	motifs := Default.Mine(insts)
	phi := DefaultPhi
	group := DefaultGroupFraction * DefaultPhi
	for _, m := range motifs {
		for i, a := range m.Members {
			hasPeer := false
			for j, b := range m.Members {
				if i == j {
					continue
				}
				s := corrsim.Default.Detailed(a.Window.Values, b.Window.Values).Similarity
				if s >= phi {
					hasPeer = true
				}
				// The greedy construction checks the group bound at insert
				// time; verify it still holds for the final sets.
				if s < group-1e-9 {
					t.Fatalf("motif %d: members %d,%d below group bound: %.3f", m.ID, i, j, s)
				}
			}
			if !hasPeer {
				t.Fatalf("motif %d: member %d has no close peer", m.ID, i)
			}
		}
	}
}

func TestMergeCombinesCompatibleMotifs(t *testing.T) {
	// Loose miner: high phi keeps two noisy evening groups separate during
	// construction, but the 0.6 merge pass should reunite them.
	rng := rand.New(rand.NewSource(4))
	var insts []Instance
	for d := 0; d < 6; d++ {
		insts = append(insts, inst("gw00", d, eveningShape(rng, 0.02)))
	}
	// Same shape scaled ×100: correlation-identical.
	for d := 6; d < 12; d++ {
		vals := eveningShape(rng, 0.02)
		for i := range vals {
			vals[i] *= 100
		}
		insts = append(insts, inst("gw01", d, vals))
	}
	motifs := Default.Mine(insts)
	if len(motifs) != 1 {
		t.Fatalf("got %d motifs, want 1 (scale-invariant grouping)", len(motifs))
	}
	if motifs[0].Support() != 12 {
		t.Errorf("support = %d, want 12", motifs[0].Support())
	}
}

func TestRepeatShareAndGateways(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := &Motif{}
	// gw00 contributes 3 members, gw01 and gw02 one each.
	for d := 0; d < 3; d++ {
		m.Members = append(m.Members, inst("gw00", d, eveningShape(rng, 0)))
	}
	m.Members = append(m.Members, inst("gw01", 3, eveningShape(rng, 0)))
	m.Members = append(m.Members, inst("gw02", 4, eveningShape(rng, 0)))
	if got := m.RepeatShare(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("repeat share = %g, want 0.6", got)
	}
	gws := m.Gateways()
	if len(gws) != 3 || gws["gw00"] != 3 {
		t.Errorf("gateways = %v", gws)
	}
	empty := &Motif{}
	if empty.RepeatShare() != 0 {
		t.Error("empty motif repeat share should be 0")
	}
}

func TestMeanProfile(t *testing.T) {
	m := &Motif{}
	m.Members = append(m.Members,
		inst("a", 0, []float64{0, 10, 20}),
		inst("b", 1, []float64{0, 100, 200}),
	)
	prof := m.MeanProfile()
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(prof[i]-want[i]) > 1e-12 {
			t.Errorf("profile[%d] = %g, want %g", i, prof[i], want[i])
		}
	}
	// All-zero member is skipped, not divided by zero.
	m.Members = append(m.Members, inst("c", 2, []float64{0, 0, 0}))
	prof2 := m.MeanProfile()
	if math.IsNaN(prof2[1]) {
		t.Error("zero member corrupted the profile")
	}
}

func TestOfInterestAndPerGatewayAndHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var insts []Instance
	for d := 0; d < 9; d++ {
		insts = append(insts, inst(fmt.Sprintf("gw%02d", d%2), d, eveningShape(rng, 0.05)))
	}
	for d := 9; d < 12; d++ {
		insts = append(insts, inst("gw02", d, morningShape(rng, 0.05)))
	}
	motifs := Default.Mine(insts)
	if got := (Miner{MinSupport: 5}).Mine(insts); len(got) != 1 {
		t.Errorf("motifs of interest = %d, want 1", len(got))
	}
	per := PerGateway(motifs)
	if per["gw00"] != 1 || per["gw02"] != 1 {
		t.Errorf("per gateway = %v", per)
	}
	hist := SupportHistogram(motifs)
	if len(hist) != 2 || hist[0] != 9 || hist[1] != 3 {
		t.Errorf("support histogram = %v", hist)
	}
}

func TestMinSupportConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	insts := []Instance{
		inst("a", 0, eveningShape(rng, 0.02)),
		inst("a", 1, eveningShape(rng, 0.02)),
		inst("b", 2, morningShape(rng, 0.02)),
	}
	// Default drops the singleton.
	if got := Default.Mine(insts); len(got) != 1 {
		t.Errorf("default: %d motifs, want 1", len(got))
	}
	// MinSupport 1 keeps it.
	keepAll := Miner{MinSupport: 1}
	if got := keepAll.Mine(insts); len(got) != 2 {
		t.Errorf("min-support 1: %d motifs, want 2", len(got))
	}
}

func TestClassifyWeekly(t *testing.T) {
	mk := func(dayLoads [7]float64) []float64 {
		prof := make([]float64, 21)
		for d, load := range dayLoads {
			for b := 0; b < 3; b++ {
				prof[d*3+b] = load
			}
		}
		return prof
	}
	if got := ClassifyWeekly(mk([7]float64{1, 1, 1, 1, 1, 8, 8})); got != WeeklyHeavyWeekend {
		t.Errorf("weekend profile = %q", got)
	}
	if got := ClassifyWeekly(mk([7]float64{5, 5, 5, 5, 5, 0.2, 0.2})); got != WeeklyWorkdays {
		t.Errorf("workday profile = %q", got)
	}
	if got := ClassifyWeekly(mk([7]float64{1, 1, 1, 1, 1, 1, 1})); got != WeeklyEveryday {
		t.Errorf("uniform profile = %q", got)
	}
	if got := ClassifyWeekly([]float64{1, 2, 3}); got != WeeklyOther {
		t.Errorf("bad length = %q", got)
	}
	if got := ClassifyWeekly(make([]float64, 21)); got != WeeklyOther {
		t.Errorf("all-zero = %q", got)
	}
}

func TestClassifyDaily(t *testing.T) {
	cases := []struct {
		prof []float64
		want DailyClass
	}{
		{[]float64{0, 0, 0, 0, 10, 10, 1, 0}, DailyAfternoon},
		{[]float64{2, 0, 0, 0, 0, 1, 4, 10}, DailyLateEvening},
		{[]float64{0, 0, 6, 4, 0.5, 0.5, 6, 5}, DailyMorningEvening},
		{[]float64{1, 1, 3, 3, 3, 3, 3, 2}, DailyAllDay},
		{[]float64{10, 10, 0, 0, 0, 0, 0, 0}, DailyOther}, // pure night
	}
	for i, tc := range cases {
		if got := ClassifyDaily(tc.prof); got != tc.want {
			t.Errorf("case %d: got %q, want %q", i, got, tc.want)
		}
	}
	if ClassifyDaily([]float64{1}) != DailyOther {
		t.Error("bad length should be other")
	}
}

// TestMineMatchesPairwiseReference holds the graph-backed Mine to the
// pairwise miner it replaced: identical motifs, IDs and member order on
// seeded random instance sets — two to four shapes under noise, missing
// bins, quantised and all-zero windows — at φ = 0.8 and 0.9 and with
// singletons kept, some of whose merge passes fire.
func TestMineMatchesPairwiseReference(t *testing.T) {
	shapes := [][]float64{
		{100, 50, 200, 400, 600, 900, 60000, 45000},
		{100, 50, 55000, 48000, 800, 500, 300, 150},
		{9000, 8000, 50, 20, 10, 5, 0, 0},
		{300, 200, 2000, 2500, 2200, 2600, 3000, 800},
	}
	merges, motifs := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		noise := 0.1 + 0.5*rng.Float64()
		insts := make([]Instance, 10+rng.Intn(50))
		for i := range insts {
			base := shapes[rng.Intn(k)]
			vals := make([]float64, len(base))
			for b, v := range base {
				vals[b] = v * math.Exp(noise*rng.NormFloat64())
				switch r := rng.Float64(); {
				case r < 0.05:
					vals[b] = math.NaN()
				case r < 0.15:
					vals[b] = math.Round(vals[b] / 1000)
				}
			}
			if rng.Float64() < 0.03 {
				clear(vals)
			}
			insts[i] = inst(fmt.Sprintf("gw%02d", rng.Intn(6)), i, vals)
		}
		for _, mn := range []Miner{Default, {Phi: 0.9}, {MinSupport: 1}} {
			ref := pairwiseMiner{Phi: mn.Phi, MinSupport: mn.MinSupport, merges: &merges}
			want, got := ref.Mine(insts), mn.Mine(insts)
			motifs += len(want)
			if !sameMotifs(got, want) {
				t.Fatalf("seed %d, %+v: graph Mine = %s, pairwise = %s", seed, mn, motifString(got), motifString(want))
			}
		}
	}
	if merges == 0 || motifs == 0 {
		t.Fatalf("%d merges over %d motifs: the sets do not exercise the merge pass", merges, motifs)
	}
}

func sameMotifs(a, b []*Motif) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].ID != b[k].ID || a[k].Support() != b[k].Support() {
			return false
		}
		for i, m := range a[k].Members {
			if o := b[k].Members[i]; m.GatewayID != o.GatewayID || m.Window.Ordinal != o.Window.Ordinal {
				return false
			}
		}
	}
	return true
}

// motifString lists each motif's ID and its members' ordinals.
func motifString(ms []*Motif) string {
	out := ""
	for _, m := range ms {
		out += fmt.Sprintf("%d:[", m.ID)
		for i, inst := range m.Members {
			if i > 0 {
				out += " "
			}
			out += fmt.Sprint(inst.Window.Ordinal)
		}
		out += "] "
	}
	return out
}

// pairwiseMiner is the miner as it was before the window graph: every
// similarity is a fresh Measure call, and the merge pass rescores the cross
// pairs on every round. It is kept verbatim, bar its name and the merge
// counter, as the reference the graph-backed Mine must reproduce exactly.
type pairwiseMiner struct {
	// Measure is the similarity measure (zero value = α 0.05).
	Measure corrsim.Measure
	// Phi is the individual-similarity threshold (0 → 0.8).
	Phi float64
	// GroupFraction scales Phi into the group threshold (0 → 3/4).
	GroupFraction float64
	// MergeThreshold combines motifs whose cross-pairs all exceed it
	// (0 → 0.6).
	MergeThreshold float64
	// MinSupport drops motifs with fewer members from the result (0 → 2:
	// an unrepeated window is not a recurring pattern).
	MinSupport int

	merges *int // counts the merge pass's merges (added for the test)
}

func (mn pairwiseMiner) phi() float64 {
	if mn.Phi == 0 { //homesight:ignore zero-sentinel — a φ of exactly 0 would admit every pair; zero safely means "default"
		return DefaultPhi
	}
	return mn.Phi
}

func (mn pairwiseMiner) groupThreshold() float64 {
	f := mn.GroupFraction
	if f == 0 {
		f = DefaultGroupFraction
	}
	return f * mn.phi()
}

func (mn pairwiseMiner) mergeThreshold() float64 {
	if mn.MergeThreshold == 0 { //homesight:ignore zero-sentinel — a merge bound of 0 would collapse all motifs; zero safely means "default"
		return DefaultMergeThreshold
	}
	return mn.MergeThreshold
}

func (mn pairwiseMiner) minSupport() int {
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
// threshold, then drops candidates below MinSupport.
func (mn pairwiseMiner) Mine(instances []Instance) []*Motif {
	phi := mn.phi()
	group := mn.groupThreshold()

	var motifs []*Motif
	for _, inst := range instances {
		bestIdx := -1
		bestSim := 0.0
		for mi, m := range motifs {
			maxSim, minSim := mn.similarityRange(inst, m)
			if maxSim >= phi && minSim >= group && maxSim > bestSim {
				bestIdx, bestSim = mi, maxSim
			}
		}
		if bestIdx >= 0 {
			motifs[bestIdx].Members = append(motifs[bestIdx].Members, inst)
		} else {
			motifs = append(motifs, &Motif{Members: []Instance{inst}})
		}
	}

	motifs = mn.merge(motifs)

	out := motifs[:0]
	for _, m := range motifs {
		if m.Support() >= mn.minSupport() {
			out = append(out, m)
		}
	}
	// Largest support first, stable; then assign IDs.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Support() > out[j].Support() })
	for i, m := range out {
		m.ID = i
	}
	return out
}

// similarityRange returns the max and min similarity between the instance
// and the motif's members.
func (mn pairwiseMiner) similarityRange(inst Instance, m *Motif) (maxSim, minSim float64) {
	minSim = 1
	for _, mem := range m.Members {
		s := mn.Measure.Detailed(inst.Window.Values, mem.Window.Values).Similarity
		if s > maxSim {
			maxSim = s
		}
		if s < minSim {
			minSim = s
		}
	}
	return maxSim, minSim
}

// merge combines motifs whose cross-member similarities all exceed the
// merge threshold, repeating until a fixed point.
func (mn pairwiseMiner) merge(motifs []*Motif) []*Motif {
	thr := mn.mergeThreshold()
	for {
		merged := false
	outer:
		for i := 0; i < len(motifs); i++ {
			for j := i + 1; j < len(motifs); j++ {
				if mn.allCrossAbove(motifs[i], motifs[j], thr) {
					motifs[i].Members = append(motifs[i].Members, motifs[j].Members...)
					motifs = append(motifs[:j], motifs[j+1:]...)
					merged = true
					*mn.merges++
					break outer
				}
			}
		}
		if !merged {
			return motifs
		}
	}
}

// allCrossAbove reports whether every cross pair of the two motifs clears
// the threshold. Single-member "motifs" (unassigned windows) are not worth
// merging — they already failed to join during construction.
func (mn pairwiseMiner) allCrossAbove(a, b *Motif, thr float64) bool {
	if a.Support() < 2 || b.Support() < 2 {
		return false
	}
	for _, x := range a.Members {
		for _, y := range b.Members {
			if mn.Measure.Detailed(x.Window.Values, y.Window.Values).Similarity < thr {
				return false
			}
		}
	}
	return true
}
