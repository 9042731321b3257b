package experiments

import (
	"context"
	"fmt"

	"homesight/internal/aggregate"
	"homesight/internal/corrsim"
	"homesight/internal/devices"
	"homesight/internal/dominance"
	"homesight/internal/motif"
	"homesight/internal/report"
	"homesight/internal/timeseries"
)

// MotifSetResult covers Figs. 9 and 10 for one motif family (weekly or
// daily): the mined motifs with support and participation statistics.
type MotifSetResult struct {
	Kind    string // "weekly" or "daily"
	Cohort  int    // gateways contributing windows
	Windows int    // total window instances mined
	Motifs  []*motif.Motif
	// HighSupport counts motifs with support >= 10 (Fig. 9's annotation).
	HighSupport int
	// PerGateway maps gateway → number of distinct motifs (Fig. 10).
	PerGateway map[string]int
	// AvgPerGateway is the mean of PerGateway (paper: 2.76 weekly, 12.5
	// daily).
	AvgPerGateway float64
}

// MineWeeklyMotifs reproduces the weekly motif mining of Sec. 7.2.1:
// 8h-at-2am windows over the six-week cohort, background removed.
func MineWeeklyMotifs(ctx context.Context, e *Env) (MotifSetResult, error) {
	ids, cohort := e.WeeklyCohort(e.WeeksWeeklyMotif)
	return mineMotifs(ctx, e, "weekly", ids, cohort, aggregate.BestWeekly)
}

// MineDailyMotifs reproduces the daily motif mining of Sec. 7.2.2:
// 3h windows over the four-week daily cohort.
func MineDailyMotifs(ctx context.Context, e *Env) (MotifSetResult, error) {
	ids, cohort := e.DailyCohort()
	return mineMotifs(ctx, e, "daily", ids, cohort, aggregate.BestDaily)
}

func mineMotifs(ctx context.Context, e *Env, kind string, ids []string, cohort []*timeseries.Series, spec timeseries.WindowSpec) (MotifSetResult, error) {
	res := MotifSetResult{Kind: kind, Cohort: len(cohort)}
	// Window extraction fans out per cohort member; the mining pass below
	// stays serial because the miner's output depends on instance order.
	perMember := make([][]motif.Instance, len(cohort))
	errs := make([]error, len(cohort))
	if err := e.forEach(ctx, len(cohort), func(i int) {
		perMember[i], errs[i] = motif.Instances(ids[i], cohort[i], spec)
	}); err != nil {
		return res, err
	}
	var instances []motif.Instance
	for i, wins := range perMember {
		if errs[i] != nil {
			return res, errs[i]
		}
		instances = append(instances, wins...)
	}
	res.Windows = len(instances)
	res.Motifs = motif.Default.Mine(instances)
	for _, m := range res.Motifs {
		if m.Support() >= 10 {
			res.HighSupport++
		}
	}
	res.PerGateway = motif.PerGateway(res.Motifs)
	if len(res.PerGateway) > 0 {
		sum := 0
		for _, n := range res.PerGateway {
			sum += n
		}
		res.AvgPerGateway = float64(sum) / float64(len(res.PerGateway))
	}
	return res, nil
}

// SupportDistribution bins motif supports for Fig. 9.
func (r MotifSetResult) SupportDistribution() []int {
	return motif.SupportHistogram(r.Motifs)
}

// String renders Figs. 9 and 10 for this family.
func (r MotifSetResult) String() string {
	t := report.NewTable(fmt.Sprintf("Fig 9/10 — %s motifs", r.Kind), "metric", "value")
	t.AddRow("cohort gateways", r.Cohort)
	t.AddRow("window instances", r.Windows)
	t.AddRow("motifs", len(r.Motifs))
	t.AddRow("motifs with support >= 10", r.HighSupport)
	t.AddRow("avg distinct motifs per gateway", r.AvgPerGateway)
	supports := r.SupportDistribution()
	top := supports
	if len(top) > 8 {
		top = top[:8]
	}
	t.AddRow("top supports", fmt.Sprintf("%v", top))
	return t.String()
}

// MotifProfile describes one motif of interest (Figs. 11 and 14).
type MotifProfile struct {
	MotifID int
	// Class is the behavioural family label.
	Class string
	// Support and RepeatShare annotate the figure captions.
	Support     int
	RepeatShare float64
	// Profile is the mean normalized shape.
	Profile []float64
}

// WeeklyMotifsOfInterest picks the highest-support weekly motif of each
// behavioural class (Fig. 11's motif1/motif2/motif3).
func WeeklyMotifsOfInterest(r MotifSetResult) []MotifProfile {
	best := map[motif.WeeklyClass]*motif.Motif{}
	for _, m := range r.Motifs {
		cl := motif.ClassifyWeekly(m.MeanProfile())
		if cl == motif.WeeklyOther {
			continue
		}
		if cur := best[cl]; cur == nil || m.Support() > cur.Support() {
			best[cl] = m
		}
	}
	var out []MotifProfile
	for _, cl := range []motif.WeeklyClass{motif.WeeklyHeavyWeekend, motif.WeeklyEveryday, motif.WeeklyWorkdays} {
		if m := best[cl]; m != nil {
			out = append(out, MotifProfile{
				MotifID: m.ID, Class: string(cl), Support: m.Support(),
				RepeatShare: m.RepeatShare(), Profile: m.MeanProfile(),
			})
		}
	}
	return out
}

// DailyMotifsOfInterest picks the highest-support daily motif of each
// behavioural class (Fig. 14's motifs A-D).
func DailyMotifsOfInterest(r MotifSetResult) []MotifProfile {
	best := map[motif.DailyClass]*motif.Motif{}
	for _, m := range r.Motifs {
		cl := motif.ClassifyDaily(m.MeanProfile())
		if cl == motif.DailyOther {
			continue
		}
		if cur := best[cl]; cur == nil || m.Support() > cur.Support() {
			best[cl] = m
		}
	}
	var out []MotifProfile
	for _, cl := range []motif.DailyClass{motif.DailyAfternoon, motif.DailyLateEvening, motif.DailyMorningEvening, motif.DailyAllDay} {
		if m := best[cl]; m != nil {
			out = append(out, MotifProfile{
				MotifID: m.ID, Class: string(cl), Support: m.Support(),
				RepeatShare: m.RepeatShare(), Profile: m.MeanProfile(),
			})
		}
	}
	return out
}

// RenderProfiles prints motif-of-interest shapes (Figs. 11 / 14).
func RenderProfiles(title string, profiles []MotifProfile) string {
	t := report.NewTable(title, "motif", "class", "support", "repeat share", "profile")
	for _, p := range profiles {
		t.AddRow(p.MotifID, p.Class, p.Support,
			fmt.Sprintf("%.0f%%", p.RepeatShare*100), report.Sparkline(p.Profile))
	}
	return t.String()
}

// MotifDominance is the per-motif dominant-device analysis of Figs. 12/13
// (weekly) and 15/16 (daily).
type MotifDominance struct {
	MotifID int
	Class   string
	Support int
	// CountDist[k] is the share of members with exactly k window-dominant
	// devices (k capped at 3).
	CountDist [4]float64
	// IntersectDist[k] is the share of members whose window dominants
	// include exactly k of the gateway's overall dominants (capped at 3).
	IntersectDist [4]float64
	// TypeDist is the inferred-type distribution of window dominants.
	TypeDist map[devices.Type]float64
	// WorkdayShare / WeekendShare split daily members by day type
	// (Fig. 16b); zero for weekly motifs.
	WorkdayShare, WeekendShare float64
}

// AnalyzeMotifDominance evaluates the selected motifs member-by-member:
// dominance inside the member's own time window versus the gateway's
// overall dominants. Gateways fan out in parallel; every per-member
// statistic is an integer count, so the final shares are identical no
// matter which worker finished first.
func AnalyzeMotifDominance(ctx context.Context, e *Env, r MotifSetResult, profiles []MotifProfile) ([]MotifDominance, error) {
	gws := e.gatewayCaches()

	byID := map[int]*motif.Motif{}
	for _, m := range r.Motifs {
		byID[m.ID] = m
	}

	// Group all members of the selected motifs by gateway so each home's
	// overall dominants are looked up once. The group list is ordered by first
	// appearance (profiles, then member order) — deterministic, unlike a
	// map iteration.
	type memberRef struct {
		motifIdx int
		inst     motif.Instance
	}
	type gatewayRefs struct {
		id   string
		refs []memberRef
	}
	gwSlot := map[string]int{}
	var groups []gatewayRefs
	out := make([]MotifDominance, len(profiles))
	for pi, p := range profiles {
		out[pi] = MotifDominance{
			MotifID: p.MotifID, Class: p.Class, Support: p.Support,
			TypeDist: make(map[devices.Type]float64),
		}
		m := byID[p.MotifID]
		if m == nil {
			continue
		}
		for _, inst := range m.Members {
			slot, ok := gwSlot[inst.GatewayID]
			if !ok {
				slot = len(groups)
				gwSlot[inst.GatewayID] = slot
				groups = append(groups, gatewayRefs{id: inst.GatewayID})
			}
			groups[slot].refs = append(groups[slot].refs, memberRef{pi, inst})
		}
	}

	idToIndex := map[string]int{}
	for _, gc := range gws {
		idToIndex[gc.id] = gc.index
	}

	// profPartial accumulates one gateway's contribution to one profile.
	type profPartial struct {
		members, workdays int
		count, intersect  [4]int
		types             map[devices.Type]int
	}
	partials := make([][]profPartial, len(groups))
	if err := e.forEach(ctx, len(groups), func(g int) {
		part := make([]profPartial, len(profiles))
		partials[g] = part
		idx, ok := idToIndex[groups[g].id]
		if !ok {
			return
		}
		overall := e.Dominance(idx)
		overallMACs := map[string]bool{}
		for _, sc := range overall.Dominants {
			overallMACs[sc.Device.MAC] = true
		}

		gc := gws[idx]
		for _, ref := range groups[g].refs {
			p := &part[ref.motifIdx]
			p.members++
			w := ref.inst.Window
			wEnd := w.Start.Add(timeseries.Day)
			if r.Kind == "weekly" {
				wEnd = w.Start.Add(timeseries.Week)
			}
			// Window-local dominance at minute resolution; the gateway's
			// window is ranked once for all the home's devices.
			gwWin := corrsim.Default.Against(gc.raw.Between(w.Start, wEnd).Values)
			winDom := 0
			intersect := 0
			for _, ds := range gc.devices {
				sim := gwWin.Similarity(ds.Series.Between(w.Start, wEnd).Values)
				if sim > dominance.DefaultPhi {
					winDom++
					if p.types == nil {
						p.types = make(map[devices.Type]int)
					}
					p.types[ds.Device.Inferred]++
					if overallMACs[ds.Device.MAC] {
						intersect++
					}
				}
			}
			p.count[cap3(winDom)]++
			p.intersect[cap3(intersect)]++
			if r.Kind == "daily" && !w.IsWeekend() {
				p.workdays++
			}
		}
	}); err != nil {
		return nil, err
	}

	members := make([]int, len(profiles))
	workdays := make([]int, len(profiles))
	counts := make([][4]int, len(profiles))
	intersects := make([][4]int, len(profiles))
	totalTypes := make([]int, len(profiles))
	for _, part := range partials {
		for pi := range part {
			p := &part[pi]
			members[pi] += p.members
			workdays[pi] += p.workdays
			for k := 0; k < 4; k++ {
				counts[pi][k] += p.count[k]
				intersects[pi][k] += p.intersect[k]
			}
			for typ, n := range p.types {
				out[pi].TypeDist[typ] += float64(n)
				totalTypes[pi] += n
			}
		}
	}

	for pi := range out {
		n := float64(members[pi])
		if n == 0 {
			continue
		}
		for k := range out[pi].CountDist {
			out[pi].CountDist[k] = float64(counts[pi][k]) / n
			out[pi].IntersectDist[k] = float64(intersects[pi][k]) / n
		}
		// The total is an integer, so the shares cannot depend on the
		// order the map yields the types in.
		for typ := range out[pi].TypeDist {
			out[pi].TypeDist[typ] /= float64(totalTypes[pi])
		}
		if r.Kind == "daily" {
			out[pi].WorkdayShare = float64(workdays[pi]) / n
			out[pi].WeekendShare = 1 - out[pi].WorkdayShare
		}
	}
	return out, nil
}

func cap3(k int) int {
	if k > 3 {
		return 3
	}
	return k
}

// RenderMotifDominance prints Figs. 12/13 or 15/16.
func RenderMotifDominance(title string, doms []MotifDominance, daily bool) string {
	t := report.NewTable(title+" — dominant-device counts per member",
		"motif", "class", "0 dev", "1 dev", "2 dev", "3+ dev")
	for _, d := range doms {
		t.AddRow(d.MotifID, d.Class, pct(d.CountDist[0]), pct(d.CountDist[1]), pct(d.CountDist[2]), pct(d.CountDist[3]))
	}
	out := t.String()

	ti := report.NewTable("Intersection with overall dominants",
		"motif", "0 common", "1 common", "2 common", "3+ common")
	for _, d := range doms {
		ti.AddRow(d.MotifID, pct(d.IntersectDist[0]), pct(d.IntersectDist[1]), pct(d.IntersectDist[2]), pct(d.IntersectDist[3]))
	}
	out += ti.String()

	tt := report.NewTable("Dominant device types per motif", "motif", "portable", "fixed", "unlabeled", "net eq", "console", "tv")
	for _, d := range doms {
		tt.AddRow(d.MotifID,
			pct(d.TypeDist[devices.Portable]), pct(d.TypeDist[devices.Fixed]),
			pct(d.TypeDist[devices.Unlabeled]), pct(d.TypeDist[devices.NetworkEq]),
			pct(d.TypeDist[devices.GameConsole]), pct(d.TypeDist[devices.TV]))
	}
	out += tt.String()

	if daily {
		td := report.NewTable("Workday vs weekend members", "motif", "workday", "weekend")
		for _, d := range doms {
			td.AddRow(d.MotifID, pct(d.WorkdayShare), pct(d.WeekendShare))
		}
		out += td.String()
	}
	return out
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
