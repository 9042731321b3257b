package experiments

import (
	"context"
	"fmt"

	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/report"
)

// AblationResult compares the Definition 1 max-of-three measure against its
// single-coefficient variants on the dominance task: how many dominant
// devices each variant finds over the same cohort. The paper argues all
// three dependency notions matter; the max-of-three must find at least as
// many dominants as any single coefficient (and strictly more when
// nonlinear-but-monotone couplings exist).
type AblationResult struct {
	Gateways int
	// Dominants maps variant name → total dominants found.
	Dominants map[string]int
	// GatewaysWith maps variant name → gateways with >= 1 dominant.
	GatewaysWith map[string]int
}

// ablationVariants are the measures compared.
var ablationVariants = []struct {
	name string
	use  corrsim.Coefficients
}{
	{"max-of-three", corrsim.UseAll},
	{"pearson-only", corrsim.UsePearson},
	{"spearman-only", corrsim.UseSpearman},
	{"kendall-only", corrsim.UseKendall},
}

// TabSimilarityAblation runs the dominance detection under each variant.
// All four variants are re-derived from the coefficients each Score of the
// home's dominance result carries (Score.Detail, via SimilarityUnder), so
// a home's three correlation coefficients are computed once instead of
// once per variant.
func TabSimilarityAblation(ctx context.Context, e *Env) (AblationResult, error) {
	if err := ctx.Err(); err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{
		Dominants:    make(map[string]int),
		GatewaysWith: make(map[string]int),
	}
	for _, i := range e.WeeklyCohortIndexes() {
		scores := e.Dominance(i).All
		res.Gateways++
		for _, v := range ablationVariants {
			m := corrsim.Measure{Use: v.use}
			count := 0
			for _, sc := range scores {
				// Detect's dominance criterion: similarity strictly above φ.
				if sc.Detail.SimilarityUnder(m) > dominance.DefaultPhi {
					count++
				}
			}
			res.Dominants[v.name] += count
			if count > 0 {
				res.GatewaysWith[v.name]++
			}
		}
	}
	return res, nil
}

// String renders the result.
func (r AblationResult) String() string {
	t := report.NewTable("Ablation — similarity measure variants on dominance",
		"variant", "dominants", "gateways with >=1")
	for _, v := range ablationVariants {
		t.AddRow(v.name, r.Dominants[v.name],
			fmt.Sprintf("%d/%d", r.GatewaysWith[v.name], r.Gateways))
	}
	return t.String()
}
