package store

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"homesight/internal/gateway"
)

// refStore is the trivial model the catalog is held to: one sorted point
// list per series, the latest non-empty name per device, and the append
// counters since the last open.
type refStore struct {
	pts          map[Key][]Point
	names        map[string]map[string]string
	points, dups int64
	// seen is, per gateway, the HomeVersion and the number of stored points
	// at the previous check.
	seen map[string]homeSeen
}

type homeSeen struct {
	version int64
	points  int
}

func (r *refStore) append(rep gateway.Report) {
	ts := rep.Timestamp.Unix()
	for _, dc := range rep.Devices {
		if r.names[rep.GatewayID] == nil {
			r.names[rep.GatewayID] = make(map[string]string)
		}
		if _, known := r.names[rep.GatewayID][dc.MAC]; !known || dc.Name != "" {
			r.names[rep.GatewayID][dc.MAC] = dc.Name
		}
		for dir, val := range [2]uint64{dc.RxBytes, dc.TxBytes} {
			k := Key{Gateway: rep.GatewayID, Device: dc.MAC, Dir: Direction(dir)}
			if pts := r.pts[k]; len(pts) > 0 && ts <= pts[len(pts)-1].Ts {
				r.dups++
				continue
			}
			r.pts[k] = append(r.pts[k], Point{Ts: ts, Val: val})
			r.points++
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// check compares everything the catalog answers for with the model: every
// series through Query, the watermarks, the name catalog and the counters
// (base is the store's Stats right after its last open: WAL replay counts
// there, the model counts from it).
func (r *refStore) check(t *testing.T, s *Store, base Stats, step string) {
	t.Helper()
	total := 0
	wantWM := make(map[Key]int64, len(r.pts))
	for k, pts := range r.pts {
		if got := queryPoints(t, s, k, time.Time{}, time.Time{}); !pointsEqual(pts, got) {
			t.Fatalf("%s: %v holds %d points, want %d", step, k, len(got), len(pts))
		}
		wantWM[k] = pts[len(pts)-1].Ts
		total += len(pts)
	}
	if got := s.Watermarks(); !maps.Equal(got, wantWM) {
		t.Fatalf("%s: watermarks %v, want %v", step, got, wantWM)
	}
	if got, want := s.Gateways(), sortedKeys(r.names); !slices.Equal(got, want) {
		t.Fatalf("%s: gateways %v, want %v", step, got, want)
	}
	for gw, devs := range r.names {
		if got, want := s.Devices(gw), sortedKeys(devs); !slices.Equal(got, want) {
			t.Fatalf("%s: devices of %s %v, want %v", step, gw, got, want)
		}
		for mac, name := range devs {
			if got := s.DeviceName(gw, mac); got != name {
				t.Fatalf("%s: name of %s/%s = %q, want %q", step, gw, mac, got, name)
			}
		}
	}
	// The read-side catalog calls of the serving tier: a home's version is
	// Σ (watermark + 1), moves exactly when the home gains a point, and
	// doubles as the existence check; the campaign ends one step past the
	// highest watermark of any home, however often it was asked before.
	wantVer, homePoints := make(map[string]int64), make(map[string]int)
	var lastTs int64
	for k, pts := range r.pts {
		wantVer[k.Gateway] += pts[len(pts)-1].Ts + 1
		homePoints[k.Gateway] += len(pts)
		lastTs = max(lastTs, pts[len(pts)-1].Ts)
	}
	for gw, devs := range r.names {
		ver, ok := s.HomeVersion(gw)
		if !ok || ver != wantVer[gw] {
			t.Fatalf("%s: HomeVersion(%s) = %d, %v, want %d, true", step, gw, ver, ok, wantVer[gw])
		}
		if prev, known := r.seen[gw]; known && (ver > prev.version) != (homePoints[gw] > prev.points) {
			t.Fatalf("%s: %s went from %d to %d points and from version %d to %d", step, gw, prev.points, homePoints[gw], prev.version, ver)
		}
		r.seen[gw] = homeSeen{version: ver, points: homePoints[gw]}
		for mac := range devs {
			if !s.HasDevice(gw, mac) {
				t.Fatalf("%s: HasDevice(%s, %s) = false", step, gw, mac)
			}
		}
		if s.HasDevice(gw, "no-such-mac") {
			t.Fatalf("%s: HasDevice(%s, no-such-mac) = true", step, gw)
		}
	}
	if ver, ok := s.HomeVersion("no-such-gw"); ok || ver != 0 || s.HasDevice("no-such-gw", deviceMAC(0)) {
		t.Fatalf("%s: an unknown gateway has version %d, %v", step, ver, ok)
	}
	if len(r.pts) > 0 {
		if _, end := s.Campaign(); !end.Equal(time.Unix(lastTs, 0).Add(time.Minute)) {
			t.Fatalf("%s: campaign ends %v, want one minute past %v", step, end, time.Unix(lastTs, 0).UTC())
		}
	}
	st := s.Stats()
	if st.Points != base.Points+r.points || st.DupPoints != base.DupPoints+r.dups || st.Series != len(r.pts) {
		t.Fatalf("%s: stats points %d dups %d series %d, want %d, %d, %d", step,
			st.Points, st.DupPoints, st.Series, base.Points+r.points, base.DupPoints+r.dups, len(r.pts))
	}
	// Every point lives in exactly one place, whichever memtable
	// generation a cached series pointer put it in.
	if got := st.SegmentPoints + int64(st.MemPoints); got != int64(total) {
		t.Fatalf("%s: %d points in segments + %d in memtables, want %d in all", step, st.SegmentPoints, st.MemPoints, total)
	}
}

// TestStoreRandomOpsMatchReference drives seeded random operations —
// in-order, duplicate and out-of-order appends, devices that are renamed
// or first appear nameless, explicit and background rotations, compaction,
// crash and reopen — and holds the store to the model after every one.
// FlushPoints is small, so background rotations invalidate the cached
// memtable pointers in the middle of Append as well.
func TestStoreRandomOpsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Dir: t.TempDir(), Start: testStart, Sync: SyncAlways, FlushPoints: 150}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refStore{pts: make(map[Key][]Point), names: make(map[string]map[string]string), seen: make(map[string]homeSeen)}
		var base Stats
		next := make(map[string]int) // per gateway: the next fresh minute
		counters := make(map[string]uint64)
		for op := 0; op < 400; op++ {
			step := fmt.Sprintf("seed %d op %d", seed, op)
			switch r := rng.Intn(100); {
			case r < 88:
				gw := fmt.Sprintf("gw-%d", rng.Intn(3))
				minute := next[gw]
				switch rng.Intn(10) {
				case 0: // redelivery of the newest minute
					minute = max(minute-1, 0)
				case 1: // a stale minute
					minute = rng.Intn(minute + 1)
				default:
					next[gw]++
				}
				rep := gateway.Report{GatewayID: gw, Timestamp: testStart.Add(time.Duration(minute) * time.Minute)}
				for d := 0; d < 4; d++ {
					if rng.Intn(4) == 0 {
						continue // absent this minute
					}
					name := fmt.Sprintf("host-%d", d)
					switch {
					case d == 3 && minute < 20:
						name = "" // first seen nameless, named later
					case d == 1 && minute >= 30:
						name = "renamed-1"
					case rng.Intn(8) == 0:
						name = "" // a nameless row never erases a name
					}
					id := gw + deviceMAC(d)
					counters[id] += uint64(rng.Intn(5000))
					rep.Devices = append(rep.Devices, gateway.DeviceCounters{
						MAC: deviceMAC(d), Name: name, RxBytes: counters[id], TxBytes: counters[id] / 3,
					})
				}
				if err := s.Append(rep); err != nil {
					t.Fatalf("%s: append: %v", step, err)
				}
				ref.append(rep)
			case r < 93:
				step += " flush"
				if err := s.Flush(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			case r < 96:
				step += " compact"
				if err := s.Compact(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			default:
				step += " crash+reopen"
				s.Crash()
				if s, err = Open(cfg); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				base = s.Stats()
				ref.points, ref.dups = 0, 0
			}
			ref.check(t, s, base, step)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
