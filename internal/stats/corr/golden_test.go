package corr

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// rankGoldenPath pins the bit patterns of {ρ, p_ρ, τ, p_τ} recorded from
// the pre-kernel implementations (five comparison sorts per pair) at
// commit d04532e. Every line is
//
//	kind seed n ρ p_ρ τ p_τ        (the four floats as %016x of Float64bits)
//
// and the inputs are regenerated from (kind, seed, n) by goldenInput, so
// the file stays small. Regenerating with -update-rank-golden on a tree
// whose kernel has changed re-records whatever that kernel computes; the
// O(n²) oracle in rank_test.go is the independent witness.
const rankGoldenPath = "testdata/rank_golden.txt"

var updateRankGolden = flag.Bool("update-rank-golden", false, "rewrite "+rankGoldenPath+" from the current implementation")

var goldenKinds = []string{"traffic", "normal", "ties", "zeros"}

var goldenSizes = []int{3, 4, 5, 7, 8, 16, 33, 100, 255, 256, 257, 1000, 1024, 1440, 4096, 10080}

// goldenInput regenerates one seeded input pair.
//
//   - traffic: integer byte counts, 50–90 % zeros, log-normal bursts; y is
//     the aggregate of x and two more such devices (the Definition 4 pairing).
//   - normal: continuous normals with negatives; y = a·x + noise with a
//     seeded sign, so both concordant- and discordant-heavy inputs occur.
//   - ties: small signed integers on both sides (heavy ties, joint ties).
//   - zeros: {-0, +0, ±1, ±Inf} — signed zeros must tie, infinities order
//     as floats do.
func goldenInput(kind string, seed int64, n int) (x, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x, y = make([]float64, n), make([]float64, n)
	burst := func(pZero float64) float64 {
		if rng.Float64() < pZero {
			return 0
		}
		return math.Floor(math.Exp(6 + 2.5*rng.NormFloat64()))
	}
	switch kind {
	case "traffic":
		pz := 0.5 + 0.4*rng.Float64()
		for i := range x {
			x[i] = burst(pz)
			y[i] = x[i] + burst(0.7) + burst(0.9)
		}
	case "normal":
		a := 2*rng.Float64() - 1
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = a*x[i] + 0.5*rng.NormFloat64()
		}
	case "ties":
		for i := range x {
			x[i] = float64(rng.Intn(7) - 3)
			y[i] = float64(rng.Intn(5) - 2)
		}
	case "zeros":
		vals := []float64{math.Copysign(0, -1), 0, -1, 1, math.Inf(-1), math.Inf(1)}
		for i := range x {
			x[i] = vals[rng.Intn(len(vals))]
			y[i] = vals[rng.Intn(len(vals))]
		}
	default:
		panic("unknown golden kind " + kind)
	}
	return x, y
}

func goldenLine(kind string, seed int64, n int) (string, error) {
	x, y := goldenInput(kind, seed, n)
	rho, err := Spearman(x, y)
	if err != nil {
		return "", err
	}
	tau, err := Kendall(x, y)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %d %d %016x %016x %016x %016x", kind, seed, n,
		math.Float64bits(rho.Coeff), math.Float64bits(rho.PValue),
		math.Float64bits(tau.Coeff), math.Float64bits(tau.PValue)), nil
}

func TestRankGolden(t *testing.T) {
	if *updateRankGolden {
		var b strings.Builder
		seed := int64(1)
		for _, kind := range goldenKinds {
			for _, n := range goldenSizes {
				for rep := 0; rep < 3; rep++ {
					line, err := goldenLine(kind, seed, n)
					if err != nil {
						t.Fatal(err)
					}
					b.WriteString(line + "\n")
					seed++
				}
			}
		}
		if err := os.WriteFile(rankGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(rankGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		want := sc.Text()
		var kind string
		var seed int64
		var n int
		if _, err := fmt.Sscanf(want, "%s %d %d", &kind, &seed, &n); err != nil {
			t.Fatalf("line %d %q: %v", lines+1, want, err)
		}
		got, err := goldenLine(kind, seed, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("rank golden drifted:\n got %s\nwant %s", got, want)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 150 {
		t.Fatalf("%s has %d lines, want the full recorded set", rankGoldenPath, lines)
	}
}
