package baselines

import (
	"errors"
	"strings"

	"homesight/internal/stats"
	"homesight/internal/stats/dist"
)

// ErrAlphabet is returned for unusable SAX alphabet sizes.
var ErrAlphabet = errors.New("baselines: alphabet size must be in [2, 26]")

// PAA returns the Piecewise Aggregate Approximation of xs with the given
// number of segments: the mean of each of `segments` equal-length chunks.
func PAA(xs []float64, segments int) []float64 {
	if segments <= 0 || len(xs) == 0 {
		return nil
	}
	if segments > len(xs) {
		segments = len(xs)
	}
	out := make([]float64, segments)
	n := float64(len(xs))
	for s := 0; s < segments; s++ {
		lo := int(float64(s) * n / float64(segments))
		hi := int(float64(s+1) * n / float64(segments))
		if hi <= lo {
			hi = lo + 1
		}
		out[s] = stats.Mean(xs[lo:hi])
	}
	return out
}

// SAX converts a series into a SAX word: z-normalize, PAA, then quantize
// against Gaussian equiprobable breakpoints. This is the representation the
// paper's Related Work shows to be ill-suited to Zipfian traffic data — the
// breakpoints assume normality, so most symbols are wasted near zero.
func SAX(xs []float64, segments, alphabet int) (string, error) {
	if alphabet < 2 || alphabet > 26 {
		return "", ErrAlphabet
	}
	z := stats.ZScores(xs)
	paa := PAA(z, segments)
	breaks := GaussianBreakpoints(alphabet)
	var b strings.Builder
	for _, v := range paa {
		b.WriteByte(byte('a' + symbolIndex(v, breaks)))
	}
	return b.String(), nil
}

// GaussianBreakpoints returns the alphabet-1 breakpoints that divide the
// standard normal into `alphabet` equiprobable regions.
func GaussianBreakpoints(alphabet int) []float64 {
	breaks := make([]float64, alphabet-1)
	for i := 1; i < alphabet; i++ {
		breaks[i-1] = dist.StdNormal.Quantile(float64(i) / float64(alphabet))
	}
	return breaks
}

func symbolIndex(v float64, breaks []float64) int {
	for i, b := range breaks {
		if v < b {
			return i
		}
	}
	return len(breaks)
}

// SymbolHistogram counts how often each SAX symbol appears in a word — the
// diagnostic used to demonstrate the paper's critique: on Zipfian data the
// distribution of symbols is wildly non-uniform even after z-normalization.
//
//homesight:ignore unreachable — (d) TestSAXOnZipfianDataIsDegenerate reproduces the SAX symbol collapse with it (EXPERIMENTS.md, reproduction verdict)
func SymbolHistogram(word string, alphabet int) []int {
	counts := make([]int, alphabet)
	for i := 0; i < len(word); i++ {
		idx := int(word[i] - 'a')
		if idx >= 0 && idx < alphabet {
			counts[idx]++
		}
	}
	return counts
}

// SAXMotifs is a simple SAX-bucket motif finder: windows whose SAX words
// are identical are grouped into candidate motifs. It mirrors what
// GrammarViz-style tooling does at fixed window length, and serves as the
// baseline the correlation-based motif discovery is compared against.
//
//homesight:ignore unreachable — (d) the GrammarViz-style rival; TestSAXMotifsGroupIdenticalShapes (EXPERIMENTS.md, reproduction verdict)
func SAXMotifs(windows [][]float64, segments, alphabet int) (map[string][]int, error) {
	out := make(map[string][]int)
	for i, w := range windows {
		word, err := SAX(w, segments, alphabet)
		if err != nil {
			return nil, err
		}
		out[word] = append(out[word], i)
	}
	return out, nil
}
