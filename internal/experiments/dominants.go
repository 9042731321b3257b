package experiments

import (
	"context"
	"fmt"
	"math"

	"homesight/internal/corrsim"
	"homesight/internal/devices"
	"homesight/internal/dominance"
	"homesight/internal/report"
	"homesight/internal/stats/corr"
)

// Fig05Result reproduces Fig. 5 and the dominant-device counts of Sec. 6.2.
type Fig05Result struct {
	Gateways int
	// ByCount[k] counts gateways with exactly k dominant devices (index 0 =
	// none; paper: 4×0, 99×1, 43×2, 7×3).
	ByCount [4]int
	// TypeByRank[rank][type] counts dominant devices of each inferred type
	// at each dominance rank (Fig. 5's stacked bars; rank 0 = first).
	TypeByRank [3]map[devices.Type]int
	// TotalByType counts dominant devices per inferred type overall
	// (paper: 74 fixed, 67 portable, 53 unlabeled, 9 net-eq, 3 consoles).
	TotalByType map[devices.Type]int
	// TotalDominants is the number of dominant devices found (paper: 206).
	TotalDominants int
}

// Fig05DominantDevices counts the Definition 4 dominants of the weekly-
// coverage cohort. It reads each home's result from the build
// (Env.Dominance), the one the agreement, residents, ablation and motif
// analyses read too.
func Fig05DominantDevices(ctx context.Context, e *Env) (Fig05Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig05Result{}, err
	}
	res := Fig05Result{TotalByType: make(map[devices.Type]int)}
	for r := range res.TypeByRank {
		res.TypeByRank[r] = make(map[devices.Type]int)
	}
	for _, i := range e.WeeklyCohortIndexes() {
		out := e.Dominance(i)
		res.Gateways++
		res.ByCount[cap3(len(out.Dominants))]++
		for rank, sc := range out.Dominants {
			res.TotalByType[sc.Device.Inferred]++
			res.TotalDominants++
			if rank < 3 {
				res.TypeByRank[rank][sc.Device.Inferred]++
			}
		}
	}
	return res, nil
}

// String renders the result.
func (r Fig05Result) String() string {
	t := report.NewTable("Fig 5 / Sec 6.2 — dominant devices per gateway (φ=0.6)",
		"dominants", "gateways")
	for k, n := range r.ByCount {
		label := fmt.Sprintf("%d", k)
		if k == 3 {
			label = "3+"
		}
		t.AddRow(label, n)
	}
	out := t.String()
	tt := report.NewTable("Dominant device types by rank", "type", "first", "second", "third", "total")
	for _, typ := range devices.AllTypes {
		tt.AddRow(string(typ), r.TypeByRank[0][typ], r.TypeByRank[1][typ], r.TypeByRank[2][typ], r.TotalByType[typ])
	}
	return out + tt.String() + fmt.Sprintf("total dominants: %d over %d gateways\n", r.TotalDominants, r.Gateways)
}

// AgreementResult reproduces the Sec. 6.2 comparison against Euclidean and
// traffic-volume dominance, plus the φ = 0.8 ablation.
type AgreementResult struct {
	TotalDominants int
	// EuclideanMatched / TrafficMatched count dominants ranked identically
	// by each baseline (paper: 88% and 73%).
	EuclideanMatched, TrafficMatched int
	// StrictGatewaysWithDominant is the share of gateways that keep at
	// least one dominant device at φ = 0.8 (paper: 67%).
	StrictGatewaysWithDominant float64
	// StrictFixedShare is the share of fixed devices among strict
	// dominants (paper: even larger than at φ = 0.6).
	StrictFixedShare float64
	Gateways         int
}

// EuclideanAgreement and TrafficAgreement return the headline fractions.
func (r AgreementResult) EuclideanAgreement() float64 {
	if r.TotalDominants == 0 {
		return 0
	}
	return float64(r.EuclideanMatched) / float64(r.TotalDominants)
}

// TrafficAgreement is the volume-baseline analogue.
func (r AgreementResult) TrafficAgreement() float64 {
	if r.TotalDominants == 0 {
		return 0
	}
	return float64(r.TrafficMatched) / float64(r.TotalDominants)
}

// TabDominanceAgreement compares dominance notions over the cohort.
func TabDominanceAgreement(ctx context.Context, e *Env) (AgreementResult, error) {
	if err := ctx.Err(); err != nil {
		return AgreementResult{}, err
	}
	res := AgreementResult{}
	strictWith := 0
	strictFixed, strictTotal := 0, 0
	for _, i := range e.WeeklyCohortIndexes() {
		out := e.Dominance(i)
		res.Gateways++
		res.TotalDominants += len(out.Dominants)
		res.EuclideanMatched += dominance.Agreement(out, dominance.EuclideanRanking(out.All))
		res.TrafficMatched += dominance.Agreement(out, dominance.TrafficRanking(out.All))

		// φ = 0.8 ablation reuses the scored set: dominants are scores
		// above the stricter threshold.
		strict := 0
		for _, sc := range out.All {
			if sc.Similarity > dominance.StrictPhi {
				strict++
				if sc.Device.Inferred == devices.Fixed {
					strictFixed++
				}
			}
		}
		strictTotal += strict
		if strict > 0 {
			strictWith++
		}
	}
	if res.Gateways > 0 {
		res.StrictGatewaysWithDominant = float64(strictWith) / float64(res.Gateways)
	}
	if strictTotal > 0 {
		res.StrictFixedShare = float64(strictFixed) / float64(strictTotal)
	}
	return res, nil
}

// String renders the result.
func (r AgreementResult) String() string {
	t := report.NewTable("Sec 6.2 — dominance notion comparison",
		"metric", "value")
	t.AddRow("dominants (φ=0.6)", r.TotalDominants)
	t.AddRow("ranked same by Euclidean", fmt.Sprintf("%d (%.0f%%)", r.EuclideanMatched, r.EuclideanAgreement()*100))
	t.AddRow("ranked same by traffic volume", fmt.Sprintf("%d (%.0f%%)", r.TrafficMatched, r.TrafficAgreement()*100))
	t.AddRow("gateways with dominant at φ=0.8", fmt.Sprintf("%.0f%%", r.StrictGatewaysWithDominant*100))
	t.AddRow("fixed share among strict dominants", fmt.Sprintf("%.0f%%", r.StrictFixedShare*100))
	return t.String()
}

// ResidentsResult reproduces the survey analysis of Sec. 6.2.
type ResidentsResult struct {
	SurveyHomes int
	// CorrAll is the correlation between #dominants and #residents over the
	// full survey (paper: not significant).
	CorrAll corr.Result
	// CorrSmall restricts to 1-2 resident homes (paper: 0.53, significant).
	CorrSmall corr.Result
	// OneUserOneDominant is the share of single-resident homes with exactly
	// one dominant device (paper: always).
	OneUserOneDominant float64
}

// TabResidentsCorrelation correlates dominant counts with resident counts
// over the survey subset.
func TabResidentsCorrelation(ctx context.Context, e *Env) (ResidentsResult, error) {
	if err := ctx.Err(); err != nil {
		return ResidentsResult{}, err
	}
	var residents, dominants []float64
	var resSmall, domSmall []float64
	oneUser, oneUserOneDom := 0, 0
	res := ResidentsResult{}
	for _, gc := range e.gatewayCaches() {
		s := e.src.survey(gc.index)
		if !s.surveyed || !gc.weeklyCoverageMain {
			continue
		}
		res.SurveyHomes++
		count := len(gc.dom.Dominants)
		nd := float64(count)
		nr := float64(s.residents)
		residents = append(residents, nr)
		dominants = append(dominants, nd)
		if s.residents <= 2 {
			resSmall = append(resSmall, nr)
			domSmall = append(domSmall, nd)
		}
		if s.residents == 1 {
			oneUser++
			if count == 1 {
				oneUserOneDom++
			}
		}
	}
	// Routed through the Definition 1 machinery (UsePearson variant) so the
	// raw r is reported together with the significance test the paper
	// quotes ("0.53, significant").
	pearson := corrsim.Measure{Use: corrsim.UsePearson}
	if d := pearson.Detailed(residents, dominants); d.N >= 3 {
		res.CorrAll = d.Pearson
	}
	if d := pearson.Detailed(resSmall, domSmall); d.N >= 3 {
		res.CorrSmall = d.Pearson
	}
	if oneUser > 0 {
		res.OneUserOneDominant = float64(oneUserOneDom) / float64(oneUser)
	}
	return res, nil
}

// String renders the result.
func (r ResidentsResult) String() string {
	t := report.NewTable("Sec 6.2 — dominants vs residents (survey subset)",
		"metric", "value")
	t.AddRow("survey homes", r.SurveyHomes)
	t.AddRow("corr all homes", fmt.Sprintf("%.2f (p=%.3f)", nz(r.CorrAll.Coeff), r.CorrAll.PValue))
	t.AddRow("corr 1-2 resident homes", fmt.Sprintf("%.2f (p=%.3f)", nz(r.CorrSmall.Coeff), r.CorrSmall.PValue))
	t.AddRow("1-user homes with exactly 1 dominant", fmt.Sprintf("%.0f%%", r.OneUserOneDominant*100))
	return t.String()
}

func nz(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
