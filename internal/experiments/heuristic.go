package experiments

import (
	"context"
	"fmt"

	"homesight/internal/devices"
	"homesight/internal/report"
)

// HeuristicResult reproduces the Sec. 3 validation of the device-type
// inference heuristic against the survey homes' ground truth.
type HeuristicResult struct {
	// Devices is the number of survey-home devices checked.
	Devices int
	// Correct counts exact matches between inferred and true class.
	Correct int
	// Labeled counts devices the heuristic labeled at all (non-Unlabeled).
	Labeled int
	// CorrectOfLabeled counts exact matches among labeled devices —
	// the heuristic's precision.
	CorrectOfLabeled int
	// Confusion[truth][inferred] is the full confusion matrix.
	Confusion map[devices.Type]map[devices.Type]int
}

// Accuracy is the share of devices classified correctly overall.
func (r HeuristicResult) Accuracy() float64 {
	if r.Devices == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Devices)
}

// Precision is the share of labeled devices classified correctly.
func (r HeuristicResult) Precision() float64 {
	if r.Labeled == 0 {
		return 0
	}
	return float64(r.CorrectOfLabeled) / float64(r.Labeled)
}

// TabHeuristicValidation checks the MAC/name classifier on the survey
// homes, where ground truth is known.
func TabHeuristicValidation(ctx context.Context, e *Env) (HeuristicResult, error) {
	if err := ctx.Err(); err != nil {
		return HeuristicResult{}, err
	}
	res := HeuristicResult{Confusion: make(map[devices.Type]map[devices.Type]int)}
	for i := range e.gatewayCaches() {
		if s := e.src.survey(i); s.surveyed {
			for _, spec := range s.inventory {
				truth, inferred := spec.Class, spec.Device.Inferred
				res.Devices++
				if res.Confusion[truth] == nil {
					res.Confusion[truth] = make(map[devices.Type]int)
				}
				res.Confusion[truth][inferred]++
				if inferred == truth {
					res.Correct++
				}
				if inferred != devices.Unlabeled {
					res.Labeled++
					if inferred == truth {
						res.CorrectOfLabeled++
					}
				}
			}
		}
	}
	return res, nil
}

// String renders the result.
func (r HeuristicResult) String() string {
	t := report.NewTable("Sec 3 — device-type heuristic vs survey ground truth",
		"metric", "value")
	t.AddRow("devices", r.Devices)
	t.AddRow("accuracy (all)", fmt.Sprintf("%.0f%%", r.Accuracy()*100))
	t.AddRow("precision (labeled only)", fmt.Sprintf("%.0f%%", r.Precision()*100))
	out := t.String()
	cm := report.NewTable("Confusion (rows = truth)", "truth", "portable", "fixed", "net eq", "console", "tv", "unlabeled")
	for _, truth := range devices.AllTypes {
		row := r.Confusion[truth]
		if row == nil {
			continue
		}
		cm.AddRow(string(truth),
			row[devices.Portable], row[devices.Fixed], row[devices.NetworkEq],
			row[devices.GameConsole], row[devices.TV], row[devices.Unlabeled])
	}
	return out + cm.String()
}
