package homesight

import (
	"fmt"
	"math"
	"strings"

	"homesight/internal/background"
	"homesight/internal/devices"
	"homesight/internal/report"
	"homesight/internal/synth"
)

// Example_background estimates each device's background-traffic
// threshold τ (Sec. 6.1), groups devices by τ, and shows how well the
// small/medium/large grouping predicts the device class — the paper's
// observation that "background traffic can be a significant feature for
// device type classification".
func Example_background() {
	dep := synth.NewDeployment(synth.Config{Homes: 30, Weeks: 2})

	type row struct {
		group  background.Group
		truth  devices.Type
		active float64
	}
	var rows []row
	for i := 0; i < dep.NumHomes(); i++ {
		for _, dt := range dep.Home(i).Traffic() {
			if dt.In.ObservedCount() < 60 {
				continue
			}
			th := background.EstimateThreshold(dt.In, dt.Out)
			rows = append(rows, row{
				group:  background.GroupOf(math.Max(th.TauIn, th.TauOut)),
				truth:  dt.Spec.Class,
				active: background.ActiveFraction(dt.Overall(), th.Tau()),
			})
		}
	}

	// τ group × true class contingency table.
	groups := []background.Group{background.Small, background.Medium, background.Large}
	counts := map[background.Group]map[devices.Type]int{}
	for _, g := range groups {
		counts[g] = map[devices.Type]int{}
	}
	for _, r := range rows {
		counts[r.group][r.truth]++
	}
	t := report.NewTable("τ group × true device class", "group", "portable", "fixed", "tv", "console", "net eq")
	for _, g := range groups {
		t.AddRow(string(g),
			counts[g][devices.Portable], counts[g][devices.Fixed],
			counts[g][devices.TV], counts[g][devices.GameConsole],
			counts[g][devices.NetworkEq])
	}
	for _, line := range strings.Split(strings.TrimSuffix(t.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " ")) // the table pads its last column
	}

	// A one-rule classifier on τ alone: small → portable, otherwise fixed.
	// The paper's point is that this is far better than chance for
	// separating user stations.
	correct, total := 0, 0
	for _, r := range rows {
		if !devices.IsUserStation(r.truth) {
			continue
		}
		total++
		pred := devices.Fixed
		if r.group == background.Small {
			pred = devices.Portable
		}
		if pred == r.truth {
			correct++
		}
	}
	fmt.Printf("\nτ-only classifier on user stations: %d/%d correct (%.0f%%)\n",
		correct, total, 100*float64(correct)/float64(total))

	// Burstiness: active traffic is a sliver of observed minutes.
	mean := 0.0
	for _, r := range rows {
		mean += r.active
	}
	mean /= float64(len(rows))
	fmt.Printf("mean share of active (above-τ) minutes per device: %.1f%%\n", mean*100)
	// Output:
	// τ group × true device class
	// group   portable  fixed  tv  console  net eq
	// ------  --------  -----  --  -------  ------
	// small   194       51     14  12       10
	// medium  1         6      0   0        0
	// large   0         6      0   0        0
	//
	// τ-only classifier on user stations: 206/258 correct (80%)
	// mean share of active (above-τ) minutes per device: 17.2%
}
