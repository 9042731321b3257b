package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"homesight/internal/corrsim"
)

// twoBlobMatrix returns a distance matrix with two tight groups {0,1,2} and
// {3,4} far apart.
func twoBlobMatrix() [][]float64 {
	return DistanceMatrix(5, func(i, j int) float64 {
		gi, gj := i/3, j/3 // 0,1,2 → 0; 3,4 → 1
		if gi == gj {
			return 0.1
		}
		return 0.9
	})
}

func sortClusters(cs [][]int) [][]int {
	for _, c := range cs {
		sort.Ints(c)
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a][0] < cs[b][0] })
	return cs
}

func TestAgglomerateTwoBlobs(t *testing.T) {
	for _, lk := range []Linkage{Average, Complete, Single} {
		d, err := Agglomerate(twoBlobMatrix(), lk)
		if err != nil {
			t.Fatal(err)
		}
		cs := sortClusters(d.Cut(0.4))
		if len(cs) != 2 {
			t.Fatalf("linkage %d: %d clusters, want 2 (%v)", lk, len(cs), cs)
		}
		if len(cs[0]) != 3 || len(cs[1]) != 2 {
			t.Errorf("linkage %d: cluster sizes %v", lk, cs)
		}
	}
}

func TestCutExtremes(t *testing.T) {
	d, err := Agglomerate(twoBlobMatrix(), Average)
	if err != nil {
		t.Fatal(err)
	}
	// Cut below every merge: all singletons.
	if cs := d.Cut(0.05); len(cs) != 5 {
		t.Errorf("low cut: %d clusters, want 5", len(cs))
	}
	// Cut above every merge: one cluster with all items.
	cs := d.Cut(10)
	if len(cs) != 1 || len(cs[0]) != 5 {
		t.Errorf("high cut: %v", cs)
	}
}

func TestHeightsMonotoneForAverageLinkage(t *testing.T) {
	d, err := Agglomerate(twoBlobMatrix(), Average)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Heights) != 4 {
		t.Fatalf("heights = %v, want 4 merges", d.Heights)
	}
	for i := 1; i < len(d.Heights); i++ {
		if d.Heights[i] < d.Heights[i-1]-1e-12 {
			t.Errorf("heights not monotone: %v", d.Heights)
		}
	}
}

func TestSingleItem(t *testing.T) {
	d, err := Agglomerate([][]float64{{0}}, Average)
	if err != nil {
		t.Fatal(err)
	}
	cs := d.Cut(0.5)
	if len(cs) != 1 || cs[0][0] != 0 {
		t.Errorf("single item clusters = %v", cs)
	}
	if len(d.Heights) != 0 {
		t.Errorf("single item has no merges, got %v", d.Heights)
	}
}

func TestMalformedMatrix(t *testing.T) {
	if _, err := Agglomerate(nil, Average); err != ErrMatrix {
		t.Errorf("want ErrMatrix, got %v", err)
	}
	if _, err := Agglomerate([][]float64{{0, 1}, {1}}, Average); err != ErrMatrix {
		t.Errorf("want ErrMatrix, got %v", err)
	}
}

func TestLeavesCoverAllItems(t *testing.T) {
	d, err := Agglomerate(twoBlobMatrix(), Complete)
	if err != nil {
		t.Fatal(err)
	}
	leaves := d.Root.Leaves()
	sort.Ints(leaves)
	if len(leaves) != 5 {
		t.Fatalf("leaves = %v", leaves)
	}
	for i, l := range leaves {
		if l != i {
			t.Errorf("leaves = %v", leaves)
		}
	}
}

func TestWithCorrelationDistance(t *testing.T) {
	// End-to-end with the paper's distance 1 - cor: three scaled copies of
	// one trend plus two of another should split at cut 0.4.
	trendA := []float64{1, 5, 2, 8, 3, 9, 4, 10, 2, 7}
	trendB := []float64{10, 2, 9, 1, 8, 2, 7, 1, 9, 3}
	series := [][]float64{
		scale(trendA, 1), scale(trendA, 50), scale(trendA, 0.2),
		scale(trendB, 1), scale(trendB, 10),
	}
	m := DistanceMatrix(len(series), func(i, j int) float64 {
		return 1 - corrsim.Default.Detailed(series[i], series[j]).Similarity
	})
	d, err := Agglomerate(m, Average)
	if err != nil {
		t.Fatal(err)
	}
	cs := sortClusters(d.Cut(0.4))
	if len(cs) != 2 || len(cs[0]) != 3 || len(cs[1]) != 2 {
		t.Errorf("correlation clusters = %v", cs)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * f
	}
	return out
}

func TestDistanceMatrixSymmetry(t *testing.T) {
	m := DistanceMatrix(4, func(i, j int) float64 { return math.Abs(float64(i - j)) })
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("diagonal not zero at %d", i)
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetry at %d,%d", i, j)
			}
		}
	}
}

func TestCutIsAlwaysAPartitionQuick(t *testing.T) {
	// Any cut of any dendrogram partitions the items exactly.
	err := quick.Check(func(seed int64, cutRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		m := DistanceMatrix(n, func(i, j int) float64 { return rng.Float64() })
		// DistanceMatrix calls dist once per pair; symmetry holds by
		// construction even with a random function.
		d, err := Agglomerate(m, Average)
		if err != nil {
			return false
		}
		cut := math.Abs(math.Mod(cutRaw, 1.5))
		seen := make(map[int]bool)
		for _, c := range d.Cut(cut) {
			for _, item := range c {
				if seen[item] {
					return false // duplicate item across clusters
				}
				seen[item] = true
			}
		}
		return len(seen) == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
