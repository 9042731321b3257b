package homesight

import (
	"fmt"
	"sort"

	"homesight/internal/aggregate"
	"homesight/internal/motif"
	"homesight/internal/report"
	"homesight/internal/synth"
)

// Example_motifs mines daily and weekly motifs across a deployment,
// classifies them into the paper's behavioural families (Figs. 11 and
// 14), prints their shapes as sparklines, and lists the per-gateway
// participation of Fig. 10.
func Example_motifs() {
	dep := synth.NewDeployment(synth.Config{Homes: 16, Weeks: 4})

	daily := mine(dep, false)
	fmt.Printf("── daily motifs (3h bins, %d found) ─────────────────────\n", len(daily))
	printMotifs(daily, func(p []float64) string { return string(motif.ClassifyDaily(p)) })

	weekly := mine(dep, true)
	fmt.Printf("\n── weekly motifs (8h bins at 2am, %d found) ─────────────\n", len(weekly))
	printMotifs(weekly, func(p []float64) string { return string(motif.ClassifyWeekly(p)) })

	fmt.Println("\n── participation (Fig 10) ───────────────────────────────")
	type entry struct {
		gw string
		n  int
	}
	var entries []entry
	for gw, n := range motif.PerGateway(daily) {
		entries = append(entries, entry{gw, n})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n > entries[j].n
		}
		return entries[i].gw < entries[j].gw
	})
	for i, e := range entries {
		if i == 8 {
			break
		}
		fmt.Printf("  %s participates in %d distinct daily motifs\n", e.gw, e.n)
	}
	// Output:
	// ── daily motifs (3h bins, 40 found) ─────────────────────
	//   motif 0   support 57   repeat 100%  late_evening     ▁▁▁▁▁▁█▂
	//   motif 1   support 41   repeat  98%  late_evening     ▁▁▁▁▁▂▇█
	//   motif 2   support 36   repeat  92%  late_evening     ▁▁▁▁▁▁▃█
	//   motif 3   support 23   repeat  96%  afternoon        ▁▁▁▁▁█▂▁
	//   motif 4   support 19   repeat  68%  other            █▁▁▁▁▁▁▁
	//   motif 5   support 18   repeat  78%  late_evening     ▁▁▁▁▁▁▁█
	//   motif 6   support 12   repeat  92%  late_evening     ▁▁▁▁▁▆█▁
	//   motif 7   support 10   repeat  70%  all_day          ▁▁▅▁▅█▄▁
	//   motif 8   support 9    repeat  67%  late_evening     ▇▁▁▁▁▁▅█
	//   motif 9   support 9    repeat  67%  other            ▁▁█▁▂▁▁▁
	//
	// ── weekly motifs (8h bins at 2am, 7 found) ─────────────
	//   motif 0   support 5    repeat  40%  everyday         ▁▁▂▁▁▃▁▁▄▁▁▃▁▁▂▁▁█▁▁▂
	//   motif 1   support 5    repeat  80%  everyday         ▁▁█▁▁▄▁▁▃▁▁▃▁▁▃▁▁▃▁▁▆
	//   motif 2   support 3    repeat  67%  everyday         ▁▁▁▁▁▁▁▁█▁▂▃▁▁▅▁▁▃▁▁▃
	//
	// ── participation (Fig 10) ───────────────────────────────
	//   gw006 participates in 14 distinct daily motifs
	//   gw010 participates in 14 distinct daily motifs
	//   gw007 participates in 13 distinct daily motifs
	//   gw003 participates in 12 distinct daily motifs
	//   gw004 participates in 12 distinct daily motifs
	//   gw001 participates in 11 distinct daily motifs
	//   gw009 participates in 11 distinct daily motifs
	//   gw013 participates in 11 distinct daily motifs
}

// mine collects every home's daily (3h bins) or weekly (8h bins at 2am)
// windows and runs the Definition 5 miner over all of them.
func mine(dep *synth.Deployment, weekly bool) []*motif.Motif {
	spec := aggregate.BestDaily
	if weekly {
		spec = aggregate.BestWeekly
	}
	var insts []motif.Instance
	for i := 0; i < dep.NumHomes(); i++ {
		h := dep.Home(i)
		got, err := motif.Instances(h.ID, h.Overall().FillMissing(0), spec)
		if err != nil {
			panic(err)
		}
		insts = append(insts, got...)
	}
	return motif.Default.Mine(insts)
}

func printMotifs(motifs []*motif.Motif, classify func([]float64) string) {
	shown := 0
	for _, m := range motifs {
		if m.Support() < 3 {
			continue
		}
		prof := m.MeanProfile()
		fmt.Printf("  motif %-3d support %-4d repeat %3.0f%%  %-16s %s\n",
			m.ID, m.Support(), m.RepeatShare()*100, classify(prof), report.Sparkline(prof))
		shown++
		if shown == 10 {
			break
		}
	}
	if shown == 0 {
		fmt.Println("  (no motifs with support >= 3)")
	}
}
