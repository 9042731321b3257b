package background_test

import (
	"fmt"
	"math/rand"
	"time"

	"homesight/internal/background"
	"homesight/internal/timeseries"
)

// A tablet chats at ~300 B/min while idle and occasionally streams video.
// The boxplot whisker separates the two regimes; thresholding keeps only
// the active minutes.
func ExampleEstimateTau() {
	rng := rand.New(rand.NewSource(42))
	mon := time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)
	vals := make([]float64, 2000)
	for i := range vals {
		if i%200 < 4 { // a four-minute burst every ~3 hours
			vals[i] = 2e6
		} else {
			vals[i] = 300 * rng.Float64()
		}
	}
	s := timeseries.New(mon, time.Minute, vals)

	tau := background.CapTau(background.EstimateTau(s.Values))
	active := s.Threshold(tau)
	fmt.Printf("tau group: %s\n", background.GroupOf(tau))
	fmt.Printf("active minutes: %.1f%%\n", 100*background.ActiveFraction(s, tau))
	fmt.Printf("background removed: %v\n", active.Total() < s.Total())
	// Output:
	// tau group: small
	// active minutes: 2.1%
	// background removed: true
}
