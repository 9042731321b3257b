package experiments

import (
	"context"
	"fmt"
	"slices"

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
	if err := e.ForEach(ctx, len(cohort), func(i int) {
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
	return motifsOfInterest(r, motif.ClassifyWeekly,
		motif.WeeklyHeavyWeekend, motif.WeeklyEveryday, motif.WeeklyWorkdays)
}

// DailyMotifsOfInterest picks the highest-support daily motif of each
// behavioural class (Fig. 14's motifs A-D).
func DailyMotifsOfInterest(r MotifSetResult) []MotifProfile {
	return motifsOfInterest(r, motif.ClassifyDaily,
		motif.DailyAfternoon, motif.DailyLateEvening, motif.DailyMorningEvening, motif.DailyAllDay)
}

// motifsOfInterest picks, for each class of order, the highest-support
// motif classify puts in it (the first one mined on a tie). A class not in
// order, such as the "other" class, is never picked.
func motifsOfInterest[C ~string](r MotifSetResult, classify func([]float64) C, order ...C) []MotifProfile {
	best := map[C]*motif.Motif{}
	for _, m := range r.Motifs {
		cl := classify(m.MeanProfile())
		if cur := best[cl]; cur == nil || m.Support() > cur.Support() {
			best[cl] = m
		}
	}
	var out []MotifProfile
	for _, cl := range order {
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
// overall dominants (the build's Definition 4 result). r must be mined
// from e. Members fan out in parallel, each writing its own slot, and one
// in-order pass reduces the slots; every share is an integer count over an
// integer total, so the output does not depend on which worker finished
// first.
func AnalyzeMotifDominance(ctx context.Context, e *Env, r MotifSetResult, profiles []MotifProfile) ([]MotifDominance, error) {
	byID := map[int]*motif.Motif{}
	for _, m := range r.Motifs {
		byID[m.ID] = m
	}
	// Every member of the selected motifs, profiles then member order.
	type member struct {
		profile int
		inst    motif.Instance
	}
	var members []member
	out := make([]MotifDominance, len(profiles))
	for pi, p := range profiles {
		out[pi] = MotifDominance{
			MotifID: p.MotifID, Class: p.Class, Support: p.Support,
			TypeDist: make(map[devices.Type]float64),
		}
		if m := byID[p.MotifID]; m != nil {
			for _, inst := range m.Members {
				members = append(members, member{pi, inst})
			}
		}
	}
	homes := map[string]*gatewayCache{}
	for _, gc := range e.gatewayCaches() {
		homes[gc.id] = gc
	}
	span := timeseries.Day
	if r.Kind == "weekly" {
		span = timeseries.Week
	}

	// windowDom is one member's window dominants: their inferred types, and
	// how many of them are among the gateway's overall dominants.
	type windowDom struct {
		types     []devices.Type
		intersect int
	}
	doms := make([]windowDom, len(members))
	if err := e.ForEach(ctx, len(members), func(j int) {
		gc, w := homes[members[j].inst.GatewayID], members[j].inst.Window
		wEnd := w.Start.Add(span)
		// Window-local dominance at minute resolution; the gateway's
		// window is ranked once for all the home's devices, and each
		// device's window is widened into one reused buffer.
		gwWin := corrsim.Default.Against(gc.raw.widen(nil, w.Start, wEnd))
		var win []float64
		for _, d := range gc.devices {
			win = d.overall.widen(win, w.Start, wEnd)
			if gwWin.Similarity(win) <= dominance.DefaultPhi {
				continue
			}
			doms[j].types = append(doms[j].types, d.dev.Inferred)
			if slices.ContainsFunc(gc.dom.Dominants, func(sc dominance.Score) bool { return sc.Device.MAC == d.dev.MAC }) {
				doms[j].intersect++
			}
		}
	}); err != nil {
		return nil, err
	}

	n := make([]int, len(profiles))
	workdays := make([]int, len(profiles))
	totalTypes := make([]int, len(profiles))
	for j, mb := range members {
		pi := mb.profile
		d := &out[pi]
		n[pi]++
		d.CountDist[cap3(len(doms[j].types))]++
		d.IntersectDist[cap3(doms[j].intersect)]++
		for _, typ := range doms[j].types {
			d.TypeDist[typ]++
		}
		totalTypes[pi] += len(doms[j].types)
		if r.Kind == "daily" && !mb.inst.Window.IsWeekend() {
			workdays[pi]++
		}
	}
	for pi := range out {
		d := &out[pi]
		if n[pi] == 0 {
			continue
		}
		for k := range d.CountDist {
			d.CountDist[k] /= float64(n[pi])
			d.IntersectDist[k] /= float64(n[pi])
		}
		// The total is an integer, so the shares cannot depend on the
		// order the map yields the types in.
		for typ := range d.TypeDist {
			d.TypeDist[typ] /= float64(totalTypes[pi])
		}
		if r.Kind == "daily" {
			d.WorkdayShare = float64(workdays[pi]) / float64(n[pi])
			d.WeekendShare = 1 - d.WorkdayShare
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
