package livestats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"homesight/internal/gateway"
)

// benchStream produces minute reports for one home with devs devices,
// cumulative counters advancing by pseudo-random per-minute increments
// — the emitter shape without the synth scaffolding.
type benchStream struct {
	start  time.Time
	devs   []gateway.DeviceCounters
	rng    *rand.Rand
	minute int
}

func newBenchStream(devs int) *benchStream {
	bs := &benchStream{
		start: time.Date(2014, time.March, 17, 0, 0, 0, 0, time.UTC),
		rng:   rand.New(rand.NewSource(1887)),
	}
	for d := 0; d < devs; d++ {
		bs.devs = append(bs.devs, gateway.DeviceCounters{
			MAC:  fmt.Sprintf("aa:bb:cc:dd:ee:%02x", d),
			Name: fmt.Sprintf("device-%02d", d),
		})
	}
	return bs
}

func (bs *benchStream) next() gateway.Report {
	for d := range bs.devs {
		bs.devs[d].RxBytes += uint64(bs.rng.Intn(4000))
		bs.devs[d].TxBytes += uint64(bs.rng.Intn(1500))
	}
	rep := gateway.Report{
		GatewayID: "gw-bench",
		Timestamp: bs.start.Add(time.Duration(bs.minute) * time.Minute),
		Devices:   append([]gateway.DeviceCounters(nil), bs.devs...),
	}
	bs.minute++
	return rep
}

func (bs *benchStream) tracker() *Tracker {
	return NewTracker(Config{Start: bs.start, Seed: 99})
}

// BenchmarkOnReport measures the steady-state per-report operator cost
// (8 devices per report, default sketch capacities).
func BenchmarkOnReport(b *testing.B) {
	bs := newBenchStream(8)
	tr := bs.tracker()
	reps := make([]gateway.Report, b.N)
	for i := range reps {
		reps[i] = bs.next()
	}
	b.ResetTimer()
	for i := range reps {
		tr.OnReport(reps[i])
	}
}

// BenchmarkSnapshot measures assembling one home's live analysis after
// a stream long enough to put the rank reservoirs in sampling mode, with
// no report between snapshots: every device is clean, so the rank memo
// answers and the cost is the O(devices) read-out plus the whisker walks.
func BenchmarkSnapshot(b *testing.B) {
	bs := newBenchStream(8)
	tr := bs.tracker()
	for i := 0; i < 5*DefaultRankCap; i++ {
		tr.OnReport(bs.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Snapshot("gw-bench"); !ok {
			b.Fatal("home vanished")
		}
	}
}

// benchWindow feeds n reports from bs into tr and returns the mean
// per-report cost.
func benchWindow(tr *Tracker, bs *benchStream, n int) time.Duration {
	reps := make([]gateway.Report, n)
	for i := range reps {
		reps[i] = bs.next()
	}
	start := time.Now()
	for i := range reps {
		tr.OnReport(reps[i])
	}
	return time.Since(start) / time.Duration(n)
}

// TestOnReportCostFlatAcrossMinute4096 pins the per-report cost as flat
// in stream depth: the mean over a window of a 12-device home's stream
// that spans minute 4 096 may not exceed 3x the mean over its first 1 024
// minutes. Minute 4 096 is where the threshold operator used to convert
// its exact buffer into a sketch by sorting it eleven times per direction
// per device — one report costing more than a hundred ordinary ones, and
// every home of a fleet paying it in the same minute. The best of three
// attempts is judged, so a scheduling stall has to hit all three windows
// to fail the test; a cost that belongs to the code is in every attempt.
func TestOnReportCostFlatAcrossMinute4096(t *testing.T) {
	const (
		early = 1024
		from  = 4096 - 256
		late  = 512
	)
	best := math.Inf(1)
	var bestEarly, bestLate time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		bs := newBenchStream(12)
		tr := bs.tracker()
		e := benchWindow(tr, bs, early)
		for bs.minute < from {
			tr.OnReport(bs.next())
		}
		l := benchWindow(tr, bs, late)
		if ratio := float64(l) / float64(e); ratio < best {
			best, bestEarly, bestLate = ratio, e, l
		}
	}
	if best > 3.0 {
		t.Errorf("per-report cost across minute 4 096 is %v against %v early (ratio %.2f > 3.0)", bestLate, bestEarly, best)
	}
	t.Logf("per-report: early %v, across minute 4 096 %v (ratio %.2f)", bestEarly, bestLate, best)
}

// BenchmarkOnReportOrder is BenchmarkOnReport with 10 devices whose rows
// come in the same order every minute (fixed) or in one of 16 shuffled
// orders (shuffled), so the second pays for a device list that moves.
func BenchmarkOnReportOrder(b *testing.B) {
	for _, shuffled := range []bool{false, true} {
		name := "fixed"
		if shuffled {
			name = "shuffled"
		}
		b.Run(name, func(b *testing.B) {
			bs := newBenchStream(10)
			tr := bs.tracker()
			order := rand.New(rand.NewSource(2)) // apart from bs.rng: both see the same traffic
			reps := make([]gateway.Report, b.N)
			for i := range reps {
				reps[i] = bs.next()
				if shuffled {
					devs := reps[i].Devices
					order.Shuffle(len(devs), func(x, y int) { devs[x], devs[y] = devs[y], devs[x] })
				}
			}
			b.ResetTimer()
			for i := range reps {
				tr.OnReport(reps[i])
			}
		})
	}
}
