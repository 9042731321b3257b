package corrsim

// Graph is the Definition 1 similarity of every pair of a set of windows:
// the weighted graph that Definition 2 thresholds, Definition 3 averages,
// Definition 5 grows and merges motifs in, and Fig. 3 clusters on as
// 1 − cor. Only the upper triangle is stored; At reads it in either order.
type Graph struct {
	n   int
	tri []float64 // cor(w_i, w_j) for i < j at j(j−1)/2 + i
}

// Graph scores every pair of windows once. Row j ranks w_j once, as the
// reference of its comparisons with w_0 … w_{j−1}, so At(i, j) for i < j
// equals m.Detailed(w_i, w_j).Similarity bit for bit. One corr.Ranked
// serves every row. The windows must not change while the graph is built.
func (m Measure) Graph(windows [][]float64) Graph {
	n := len(windows)
	g := Graph{n: n, tri: make([]float64, n*(n-1)/2)}
	ref := Reference{m: m}
	for j := 1; j < n; j++ {
		ref.ranked.Rank(windows[j])
		row := g.tri[j*(j-1)/2:][:j]
		for i := range row {
			row[i] = ref.Similarity(windows[i])
		}
	}
	return g
}

// At returns cor(w_i, w_j) for two distinct windows of the graph; At(i, j)
// == At(j, i). The graph has no self-pairs: At(i, i) panics.
func (g Graph) At(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	if i < 0 || i == j || j >= g.n {
		panic("corrsim: Graph.At needs two distinct windows of the graph")
	}
	return g.tri[j*(j-1)/2+i]
}
