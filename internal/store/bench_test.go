package store

import (
	"math/rand"
	"testing"
	"time"

	"homesight/internal/gateway"
)

// benchReport returns a mutable single-device report; the append
// benchmarks advance it in place, so the measured cost is the store's,
// not the allocator's.
func benchReport(devs int) gateway.Report {
	rep := gateway.Report{GatewayID: "gw001", Timestamp: testStart}
	for d := 0; d < devs; d++ {
		rep.Devices = append(rep.Devices, gateway.DeviceCounters{
			MAC: deviceMAC(d), Name: "bench-device", RxBytes: 1e6, TxBytes: 1e5,
		})
	}
	return rep
}

func advance(rep *gateway.Report) {
	rep.Timestamp = rep.Timestamp.Add(time.Minute)
	for d := range rep.Devices {
		rep.Devices[d].RxBytes += 120 + uint64(d)
		rep.Devices[d].TxBytes += 40
	}
}

func benchAppend(b *testing.B, devs int) {
	s, err := Open(Config{Dir: b.TempDir(), Start: testStart})
	if err != nil {
		b.Fatal(err)
	}
	rep := benchReport(devs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance(&rep)
		if err := s.Append(rep); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreAppend is the single-shard append path of the
// acceptance criterion: one device per report, group-commit fsync.
func BenchmarkStoreAppend(b *testing.B) { benchAppend(b, 1) }

// BenchmarkStoreAppendWide appends realistic 16-device reports.
func BenchmarkStoreAppendWide(b *testing.B) { benchAppend(b, 16) }

// BenchmarkStoreSelect measures the merged-read core behind Query
// (segments + memtable, streaming iteration, no result slice).
func BenchmarkStoreSelect(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir(), Start: testStart})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	const minutes = 7 * 24 * 60
	rep := benchReport(4)
	for m := 0; m < minutes; m++ {
		advance(&rep)
		if err := s.Append(rep); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	key := Key{Gateway: "gw001", Device: deviceMAC(2), Dir: DirIn}
	day := testStart.Add(3 * 24 * time.Hour)
	points := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.iter(key, day.Unix(), day.Add(24*time.Hour).Unix())
		for it.Next() {
			points++
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(points)/float64(b.N), "points/op")
}

// BenchmarkStoreAppendOrder appends 10-device reports whose rows come in
// the same order every minute (fixed) or in one of 16 shuffled orders
// (shuffled), so the second pays for a device list that moves.
func BenchmarkStoreAppendOrder(b *testing.B) {
	for _, shuffled := range []bool{false, true} {
		name := "fixed"
		if shuffled {
			name = "shuffled"
		}
		b.Run(name, func(b *testing.B) {
			s, err := Open(Config{Dir: b.TempDir(), Start: testStart})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			orders := make([][]int, 16)
			for i := range orders {
				orders[i] = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
				if shuffled {
					rng.Shuffle(10, func(x, y int) { orders[i][x], orders[i][y] = orders[i][y], orders[i][x] })
				}
			}
			canon := benchReport(10)
			rep := gateway.Report{GatewayID: canon.GatewayID, Devices: make([]gateway.DeviceCounters, 10)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				advance(&canon)
				rep.Timestamp = canon.Timestamp
				for row, d := range orders[i%len(orders)] {
					rep.Devices[row] = canon.Devices[d]
				}
				if err := s.Append(rep); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
