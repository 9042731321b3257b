package homesight

import (
	"fmt"

	"homesight/internal/aggregate"
	"homesight/internal/stationarity"
	"homesight/internal/synth"
)

// slotNames are the paper's semantic interpretation of the 8h@2am bins.
var slotNames = [3]string{"morning (2am-10am)", "working hours (10am-6pm)", "evening (6pm-2am)"}

// Example_firmware is the ISP application motivating the paper's intro.
// Operators broadcast firmware updates to all gateways at night, but
// some homes are active at night; a fine-grained temporal
// characterization lets the ISP pick the least cumbersome window per
// home. Each home's 8h-at-2am slots (morning / working hours / evening)
// are scored by recurring traffic, the home's regularity is checked by
// strong stationarity, and a per-home update window is printed with a
// confidence level.
func Example_firmware() {
	dep := synth.NewDeployment(synth.Config{Homes: 15, Weeks: 4})

	fmt.Println("home    update window            quietest-slot share  regular  confidence")
	fmt.Println("------  -----------------------  -------------------  -------  ----------")
	for i := 0; i < dep.NumHomes(); i++ {
		h := dep.Home(i)
		slot, share, regular, ok := bestUpdateSlot(h)
		if !ok {
			fmt.Printf("%-6s  %s\n", h.ID, "insufficient data")
			continue
		}
		confidence := "low"
		if regular {
			confidence = "high" // the home repeats its weekly rhythm
		} else if share < 0.15 {
			confidence = "medium" // not regular, but the slot is clearly quiet
		}
		fmt.Printf("%-6s  %-23s  %18.0f%%  %-7v  %s\n",
			h.ID, slotNames[slot], share*100, regular, confidence)
	}
	// Output:
	// home    update window            quietest-slot share  regular  confidence
	// ------  -----------------------  -------------------  -------  ----------
	// gw000   morning (2am-10am)                        2%  false    medium
	// gw001   morning (2am-10am)                       27%  false    low
	// gw002   morning (2am-10am)                        2%  false    medium
	// gw003   morning (2am-10am)                        8%  false    medium
	// gw004   morning (2am-10am)                       12%  false    medium
	// gw005   morning (2am-10am)                        2%  false    medium
	// gw006   morning (2am-10am)                       19%  false    low
	// gw007   morning (2am-10am)                        7%  false    medium
	// gw008   morning (2am-10am)                       13%  false    medium
	// gw009   morning (2am-10am)                       11%  false    medium
	// gw010   morning (2am-10am)                        9%  false    medium
	// gw011   evening (6pm-2am)                        23%  false    low
	// gw012   morning (2am-10am)                       12%  false    medium
	// gw013   working hours (10am-6pm)                  26%  false    low
	// gw014   working hours (10am-6pm)                   1%  false    medium
}

// bestUpdateSlot aggregates the home's weekly windows (8h bins at 2am) and
// returns the daily slot (0..2) carrying the least traffic, that slot's
// share of daily traffic, and whether the home is strongly stationary
// (i.e. the recommendation generalizes to future weeks).
func bestUpdateSlot(h *synth.Home) (slot int, share float64, regular, ok bool) {
	s := h.Overall().FillMissing(0)
	wins, err := aggregate.BestWeekly.Windows(s)
	if err != nil || len(wins) == 0 {
		return 0, 0, false, false
	}

	// Mean traffic per slot-of-day across all weeks (21 bins = 7 days × 3).
	var slotSum [3]float64
	for _, w := range wins {
		for b, v := range w.Values {
			slotSum[b%3] += v
		}
	}
	total := slotSum[0] + slotSum[1] + slotSum[2]
	if total == 0 {
		return 0, 0, false, false
	}
	slot = 0
	for k := 1; k < 3; k++ {
		if slotSum[k] < slotSum[slot] {
			slot = k
		}
	}
	share = slotSum[slot] / total

	var windows [][]float64
	for _, w := range wins {
		windows = append(windows, w.Values)
	}
	regular = stationarity.Default.Check(windows).Stationary
	return slot, share, regular, true
}
