// Package fixture exercises the determinism rule: wall-clock and
// unseeded math/rand calls are flagged in deterministic scope, directly
// and through transitive call chains; injected clocks and seeded
// generators are the sanctioned seams.
package fixture

import (
	"math/rand"
	"time"
)

type clock struct {
	now func() time.Time
}

// Storing time.Now as a func value is the injection idiom: a reference,
// not a call, so no finding.
func newClock() *clock { return &clock{now: time.Now} }

func direct() time.Time {
	return time.Now() // want `wall-clock time\.Now in deterministic scope`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall-clock time\.Since in deterministic scope`
}

func draw() int {
	return rand.Intn(6) // want `unseeded rand\.Intn in deterministic scope`
}

func seeded(rng *rand.Rand) int {
	return rng.Intn(6) // method on a seeded generator: no finding
}

func seedIt(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // constructors are the seeding mechanism: no finding
}

func injected(c *clock) time.Time {
	return c.now() // call through the injected seam: no finding
}

func transitive() time.Time {
	return direct() // want `call to direct reaches wall clock`
}

func transitiveRand() int {
	return draw() // want `call to draw reaches unseeded math/rand`
}

func annotated() time.Time {
	return time.Now() //homesight:ignore determinism — wire timestamps are wall time by definition
}

// The annotation vouches for the call site above, not for the taint:
// annotated still exports its fact, so deterministic callers stay flagged.
func callsAnnotated() time.Time {
	return annotated() // want `call to annotated reaches wall clock`
}

// Float sums inside a range over a map follow Go's randomised map order.
func mapOrderSums(byDay map[int][]float64, weights map[string]float64) (float64, []float64, map[string]float64) {
	total := 0.0
	for _, vals := range byDay {
		for _, v := range vals {
			total += v // want `float \+= on total inside a range over a map sums in map order`
		}
	}
	scaled := make([]float64, 4)
	for _, w := range weights {
		scaled[0] -= w // want `float -= on scaled inside a range over a map`
		scaled[1] *= w // want `float \*= on scaled inside a range over a map`
	}
	out := struct{ sum float64 }{}
	for _, w := range weights {
		out.sum += w // want `float \+= on out inside a range over a map`
	}

	// Not flagged: the target is indexed by the range key (one
	// accumulator per key), declared inside the loop, an integer, or the
	// range is over a slice.
	perKey := map[string]float64{}
	for name, w := range weights {
		perKey[name] += w
		local := 0.0
		local += w
		_ = local
	}
	count := 0
	for range weights {
		count += 1
	}
	for _, v := range scaled {
		total += v
	}
	for _, w := range weights {
		total += w //homesight:ignore determinism — the weights are integers below 2^53, exact in any order
	}
	return total + float64(count), scaled, perKey
}
