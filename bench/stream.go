package main

import (
	"fmt"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/synth"
)

// stream turns a synthetic deployment into the per-minute gateway
// reports its homes would send: the only input the ingest workloads
// hand to the system under test.
type stream struct {
	start   time.Time
	minutes int
	homes   []*homeStream

	// generateS is how long synth took to produce every home's traffic.
	generateS float64
}

// homeStream is one gateway's emitter plus its generated traffic. The
// emitter carries the cumulative counters, so it spans the campaign.
type homeStream struct {
	id      string
	emitter *gateway.Emitter
	// bytes holds the home's traffic minute-major — for minute m and
	// device d, in at bytes[(m*devices+d)*2] and out right after — so
	// emitting a minute reads one contiguous run instead of one cache
	// line per device series.
	bytes []float64
	// minute is reused for every Emit call (Emit copies what it keeps).
	// Both keep the generator's share of the timed phase small.
	minute []gateway.DeviceMinute
	// sent counts this home's non-empty reports so far.
	sent int64
}

// The census every benchmark population is drawn to: the same number
// of solidly reporting homes of each of these device counts (the
// middle of the synthetic deployment's 3–19 range), found in order in a
// pool of censusPool seeded homes. The seed decides who lives in the
// homes — devices, archetypes, traffic — while reports per minute and
// devices per home stay what they were for the last seed, so two seeds
// offer the system the same amount of work and their numbers compare.
var censusSizes = []int{6, 7, 8, 9, 10, 11, 12, 13}

const censusPool = 4096

// census picks the pool indexes of `homes` homes matching the census.
func census(dep *synth.Deployment, homes int) ([]*synth.Home, error) {
	need := make(map[int]int)
	for i := 0; i < homes; i++ {
		need[censusSizes[i%len(censusSizes)]]++
	}
	var picked []*synth.Home
	for i := 0; i < dep.NumHomes() && len(picked) < homes; i++ {
		h := dep.Home(i)
		if h.Reliability == synth.Solid && need[len(h.Devices)] > 0 {
			need[len(h.Devices)]--
			picked = append(picked, h)
		}
	}
	if len(picked) < homes {
		return nil, fmt.Errorf("a pool of %d homes holds only %d of the %d census homes", dep.NumHomes(), len(picked), homes)
	}
	return picked, nil
}

func newStream(seed int64, homes, weeks int) (*stream, error) {
	dep := synth.NewDeployment(synth.Config{Seed: seed, Homes: censusPool, Weeks: weeks})
	cfg := dep.Config()
	st := &stream{start: cfg.Start, minutes: cfg.Minutes()}
	t0 := time.Now()
	picked, err := census(dep, homes)
	if err != nil {
		return nil, err
	}
	generate := time.Since(t0)
	for _, h := range picked {
		t0 := time.Now()
		traffic := h.Traffic()
		generate += time.Since(t0)
		hs := &homeStream{id: h.ID, minute: make([]gateway.DeviceMinute, len(traffic))}
		hs.bytes = make([]float64, st.minutes*len(traffic)*2)
		for d, dt := range traffic {
			hs.minute[d].MAC = dt.Spec.Device.MAC
			hs.minute[d].Name = dt.Spec.Device.Name
			for m := 0; m < st.minutes; m++ {
				hs.bytes[(m*len(traffic)+d)*2] = dt.In.Values[m]
				hs.bytes[(m*len(traffic)+d)*2+1] = dt.Out.Values[m]
			}
		}
		st.homes = append(st.homes, hs)
	}
	st.rewind()
	st.generateS = generate.Seconds()
	return st, nil
}

// rewind restarts every home's counters, so minute 0 can be emitted
// again (the staged replay re-reads the head of the stream).
func (st *stream) rewind() {
	for _, h := range st.homes {
		h.emitter = gateway.NewEmitter(h.id)
		h.sent = 0
	}
}

func (st *stream) timeOf(m int) time.Time {
	return st.start.Add(time.Duration(m) * time.Minute)
}

// report emits home h's report for minute m; ok is false when no device
// was connected (a real gateway sends nothing then).
func (st *stream) report(h *homeStream, m int) (rep gateway.Report, ok bool) {
	row := h.bytes[m*len(h.minute)*2:]
	for d := range h.minute {
		h.minute[d].InBytes = row[2*d]
		h.minute[d].OutBytes = row[2*d+1]
	}
	rep = h.emitter.Emit(st.timeOf(m), h.minute)
	if len(rep.Devices) == 0 {
		return rep, false
	}
	h.sent++
	return rep, true
}

// tick appends every home's report for minute m to dst.
func (st *stream) tick(m int, dst []gateway.Report) []gateway.Report {
	for _, h := range st.homes {
		if rep, ok := st.report(h, m); ok {
			dst = append(dst, rep)
		}
	}
	return dst
}

// points counts the series points a batch of reports carries: one per
// device and direction.
func points(reps []gateway.Report) int64 {
	var n int64
	for _, r := range reps {
		n += 2 * int64(len(r.Devices))
	}
	return n
}
