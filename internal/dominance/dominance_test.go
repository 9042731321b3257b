package dominance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"homesight/internal/corrsim"
	"homesight/internal/devices"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

// mkSeries wraps values into a minute series.
func mkSeries(vals []float64) *timeseries.Series {
	return timeseries.New(mon, time.Minute, vals)
}

// mkDevice builds a DeviceSeries with the given MAC tail and values.
func mkDevice(mac string, vals []float64) DeviceSeries {
	return DeviceSeries{
		Device: devices.Device{MAC: mac, Inferred: devices.Portable},
		Series: mkSeries(vals),
	}
}

func TestDetectFindsTheDrivingDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	driver := make([]float64, n)
	noiseDev := make([]float64, n)
	gateway := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			driver[i] = 1e6 * rng.ExpFloat64()
		} else {
			driver[i] = 500 * rng.Float64()
		}
		noiseDev[i] = 300 * rng.Float64()
		gateway[i] = driver[i] + noiseDev[i]
	}
	res := Default.Detect(mkSeries(gateway), []DeviceSeries{
		mkDevice("aa:aa:aa:00:00:01", driver),
		mkDevice("aa:aa:aa:00:00:02", noiseDev),
	})
	if len(res.Dominants) < 1 {
		t.Fatalf("no dominants found: %+v", res.All)
	}
	if res.Dominants[0].Device.MAC != "aa:aa:aa:00:00:01" {
		t.Errorf("first dominant = %s, want the driver", res.Dominants[0].Device.MAC)
	}
	// Ranking is descending similarity.
	for i := 1; i < len(res.All); i++ {
		if res.All[i-1].Similarity < res.All[i].Similarity {
			t.Error("All not sorted by similarity")
		}
	}
}

func TestDetectNoDominantOnIndependentDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	mk := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		return v
	}
	// Gateway dominated by an unobserved wired device: no wireless device
	// should be dominant.
	gw := make([]float64, n)
	for i := range gw {
		gw[i] = 1e5 * rng.ExpFloat64()
	}
	res := Default.Detect(mkSeries(gw), []DeviceSeries{
		mkDevice("aa:aa:aa:00:00:01", mk()),
		mkDevice("aa:aa:aa:00:00:02", mk()),
	})
	if len(res.Dominants) != 0 {
		t.Errorf("unexpected dominants: %+v", res.Dominants)
	}
}

func TestPhiThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1500
	driver := make([]float64, n)
	gw := make([]float64, n)
	for i := 0; i < n; i++ {
		driver[i] = 1000 * rng.ExpFloat64()
		// Strong but imperfect coupling → similarity between 0.6 and 0.8.
		gw[i] = driver[i] + 800*rng.ExpFloat64()
	}
	devs := []DeviceSeries{mkDevice("aa:aa:aa:00:00:01", driver)}
	loose := Detector{Phi: 0.6}.Detect(mkSeries(gw), devs)
	strict := Detector{Phi: StrictPhi}.Detect(mkSeries(gw), devs)
	sim := loose.All[0].Similarity
	if sim <= 0.6 || sim >= 0.8 {
		t.Skipf("construction landed at similarity %.3f, outside (0.6, 0.8)", sim)
	}
	if len(loose.Dominants) != 1 || len(strict.Dominants) != 0 {
		t.Errorf("phi thresholds misbehave: loose=%d strict=%d sim=%.3f",
			len(loose.Dominants), len(strict.Dominants), sim)
	}
}

func TestRankings(t *testing.T) {
	scores := []Score{
		{Device: devices.Device{MAC: "m0"}, Similarity: 0.9, Euclidean: 50, Traffic: 100},
		{Device: devices.Device{MAC: "m1"}, Similarity: 0.7, Euclidean: 10, Traffic: 900},
		{Device: devices.Device{MAC: "m2"}, Similarity: 0.1, Euclidean: 99, Traffic: 500},
	}
	eu := EuclideanRanking(scores)
	if eu[0] != 1 || eu[1] != 0 || eu[2] != 2 {
		t.Errorf("euclidean order = %v", eu)
	}
	tr := TrafficRanking(scores)
	if tr[0] != 1 || tr[1] != 2 || tr[2] != 0 {
		t.Errorf("traffic order = %v", tr)
	}
}

func TestAgreement(t *testing.T) {
	res := Result{
		All: []Score{
			{Device: devices.Device{MAC: "m0"}},
			{Device: devices.Device{MAC: "m1"}},
			{Device: devices.Device{MAC: "m2"}},
		},
	}
	res.Dominants = []Score{res.All[0], res.All[1]}
	// The baseline ranking agrees on both positions.
	if got := Agreement(res, []int{0, 1, 2}); got != 2 {
		t.Errorf("agreement = %d, want 2", got)
	}
	// The baseline ranking swaps the top two: zero positional matches.
	if got := Agreement(res, []int{1, 0, 2}); got != 0 {
		t.Errorf("agreement = %d, want 0", got)
	}
	// The baseline ranking agrees on the first only.
	if got := Agreement(res, []int{0, 2, 1}); got != 1 {
		t.Errorf("agreement = %d, want 1", got)
	}
	if got := Agreement(Result{}, nil); got != 0 {
		t.Errorf("empty agreement = %d", got)
	}
}

func TestCorrelationDominanceCatchesLowVolumeFollower(t *testing.T) {
	// The paper's key qualitative claim: a device can closely follow the
	// gateway's evolution while producing modest volume; correlation
	// dominance finds it, traffic-volume dominance does not.
	rng := rand.New(rand.NewSource(4))
	n := 2000
	follower := make([]float64, n) // tracks gateway shape at 5% volume
	hog := make([]float64, n)      // huge volume, flat shape
	gw := make([]float64, n)
	for i := 0; i < n; i++ {
		activity := 0.0
		if rng.Float64() < 0.08 {
			activity = 1e6 * rng.ExpFloat64()
		}
		follower[i] = activity * 0.05
		hog[i] = 3e5 // constant heavy background, no evolution
		gw[i] = activity + hog[i] + 200*rng.Float64()
	}
	res := Default.Detect(mkSeries(gw), []DeviceSeries{
		mkDevice("aa:aa:aa:00:00:0f", follower),
		mkDevice("aa:aa:aa:00:00:0h", hog),
	})
	if len(res.Dominants) == 0 || res.Dominants[0].Device.MAC != "aa:aa:aa:00:00:0f" {
		t.Fatalf("correlation dominance should find the follower: %+v", res.All)
	}
	// Volume baseline puts the hog first instead.
	tr := TrafficRanking(res.All)
	if res.All[tr[0]].Device.MAC != "aa:aa:aa:00:00:0h" {
		t.Errorf("traffic baseline should prefer the hog")
	}
	if Agreement(res, tr) != 0 {
		t.Error("volume baseline should disagree here")
	}
}

func TestSyntheticHomesMostlyHaveADominantDevice(t *testing.T) {
	// Paper: 192/196 gateways have at least one dominant device; at most 3.
	cfg := synth.DefaultConfig()
	cfg.Homes = 25
	cfg.Weeks = 4
	d := synth.NewDeployment(cfg)
	withDominant := 0
	for i := 0; i < d.NumHomes(); i++ {
		h := d.Home(i)
		gw := h.Overall()
		var devs []DeviceSeries
		for _, dt := range h.Traffic() {
			devs = append(devs, DeviceSeries{Device: dt.Spec.Device, Series: dt.Overall()})
		}
		res := Default.Detect(gw, devs)
		if len(res.Dominants) > 0 {
			withDominant++
		}
	}
	if frac := float64(withDominant) / float64(d.NumHomes()); frac < 0.8 {
		t.Errorf("only %.0f%% of homes have a dominant device, want ~98%%", frac*100)
	}
}

func TestDetectSkipsAllNaNDevice(t *testing.T) {
	n := 100
	gw := make([]float64, n)
	ghost := make([]float64, n)
	for i := range gw {
		gw[i] = float64(i)
		ghost[i] = math.NaN()
	}
	res := Default.Detect(mkSeries(gw), []DeviceSeries{mkDevice("aa:aa:aa:00:00:01", ghost)})
	if len(res.Dominants) != 0 {
		t.Error("ghost device must not be dominant")
	}
	if res.All[0].Similarity != 0 {
		t.Errorf("ghost similarity = %g", res.All[0].Similarity)
	}
}

// TestDetectEuclideanMissingIsZero holds Score.Euclidean bit for bit to
// the reference below, the distance over zero-filled copies of both
// series, on NaN-gapped series: a device never observed, minutes missing
// from the gateway only, from the device only, and from both. Detect
// must not fill its inputs in place.
func TestDetectEuclideanMissingIsZero(t *testing.T) {
	nan := math.NaN()
	zeroFilled := func(s *timeseries.Series) []float64 {
		z := slices.Clone(s.Values)
		for i, v := range z {
			if math.IsNaN(v) {
				z[i] = 0
			}
		}
		return z
	}
	reference := func(x, y *timeseries.Series) float64 {
		zx, zy := zeroFilled(x), zeroFilled(y)
		sum := 0.0
		for i := range zx {
			d := zx[i] - zy[i]
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	rng := rand.New(rand.NewSource(4))
	n := 1440
	gw := make([]float64, n)
	gapped, dense, ghost := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range gw {
		ghost[i] = nan
		dense[i] = 50 * rng.ExpFloat64()
		gapped[i] = 3000 * rng.ExpFloat64()
		switch r := rng.Float64(); {
		case r < 0.1: // missing from the gateway only
			gw[i] = nan
		case r < 0.2: // missing from both
			gw[i], gapped[i], dense[i] = nan, nan, nan
		case r < 0.4: // missing from one device only
			gapped[i] = nan
			gw[i] = dense[i] + 1e-3*rng.Float64()
		default:
			gw[i] = gapped[i] + dense[i]
		}
	}
	devs := []DeviceSeries{
		mkDevice("aa:aa:aa:00:00:01", gapped),
		mkDevice("aa:aa:aa:00:00:02", dense),
		mkDevice("aa:aa:aa:00:00:03", ghost),
	}
	inputs := [][]float64{gw, gapped, dense, ghost}
	var before [][]float64
	for _, in := range inputs {
		before = append(before, slices.Clone(in))
	}
	res := Default.Detect(mkSeries(gw), devs)
	if len(res.All) != len(devs) {
		t.Fatalf("%d scores for %d devices", len(res.All), len(devs))
	}
	for k, in := range inputs {
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(before[k][i]) {
				t.Fatalf("input %d minute %d: Detect changed %v to %v", k, i, before[k][i], in[i])
			}
		}
	}
	for _, sc := range res.All {
		for _, ds := range devs {
			if ds.Device.MAC != sc.Device.MAC {
				continue
			}
			want := reference(ds.Series, mkSeries(gw))
			if math.Float64bits(sc.Euclidean) != math.Float64bits(want) {
				t.Errorf("%s: Euclidean %v (%#x), want %v (%#x)", sc.Device.MAC, sc.Euclidean, math.Float64bits(sc.Euclidean), want, math.Float64bits(want))
			}
			if want == 0 {
				t.Errorf("%s: zero distance, the case is vacuous", sc.Device.MAC)
			}
		}
	}
}

// TestDetectKeepsEveryCoefficient: a detector whose measure selects one
// coefficient still keeps all three on Score.Detail, so every variant of
// the measure re-derives from one Detect — each bit-equal to scoring the
// device under that variant directly — while Similarity, and so the
// φ-dominant set, follows the detector's own measure.
func TestDetectKeepsEveryCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 600
	gw := make([]float64, n)
	var devs []DeviceSeries
	for k := 1; k <= 4; k++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(k) * 200 * rng.Float64()
			if rng.Float64() < 0.05 {
				vals[i] = math.NaN()
			} else {
				gw[i] += vals[i] * vals[i] // a monotone, non-linear coupling
			}
		}
		devs = append(devs, mkDevice(fmt.Sprintf("aa:aa:aa:00:00:%02d", k), vals))
	}
	spearman := corrsim.Measure{Use: corrsim.UseSpearman}
	res := Detector{Measure: spearman}.Detect(mkSeries(gw), devs)
	if len(res.All) != len(devs) {
		t.Fatalf("%d scores for %d devices", len(res.All), len(devs))
	}
	for _, sc := range res.All {
		var x []float64
		for _, ds := range devs {
			if ds.Device.MAC == sc.Device.MAC {
				x = ds.Series.Values
			}
		}
		if d := sc.Detail; math.IsNaN(d.Pearson.Coeff) || math.IsNaN(d.Kendall.Coeff) || d.N == 0 {
			t.Fatalf("%s: detail %+v does not carry every coefficient", sc.Device.MAC, d)
		}
		if want := spearman.Detailed(x, gw).Similarity; sc.Similarity != want || sc.Detail.Similarity != want {
			t.Errorf("%s: similarity %v (detail %v), spearman-only scores %v", sc.Device.MAC, sc.Similarity, sc.Detail.Similarity, want)
		}
		for _, use := range []corrsim.Coefficients{corrsim.UseAll, corrsim.UsePearson, corrsim.UseKendall} {
			m := corrsim.Measure{Use: use}
			if got, want := sc.Detail.SimilarityUnder(m), m.Detailed(x, gw).Similarity; got != want {
				t.Errorf("%s under %v: %v from the detail, %v directly", sc.Device.MAC, use, got, want)
			}
		}
	}
}
