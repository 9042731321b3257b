package gateway

// Slots remembers what each row of a gateway's previous report resolved
// to, in report order. When a gateway lists its devices in the same order
// from one report to the next, row i is the device slot i already holds:
// Get checks that with one string compare, and only a miss — a device
// joined, left or moved — goes to the caller's map, whose answer Set puts
// back in the slot. A row that moved costs one failed compare more than
// the map alone. Every hit is checked against the row's MAC, so a stale
// slot costs a map lookup, never a wrong device; the caller's map must not
// drop an entry a slot holds. The zero value is ready to use.
type Slots[T any] struct {
	slots []slot[T]
}

type slot[T any] struct {
	mac string
	v   T
}

// Get returns slot i's entry when slot i was last filled for mac.
func (s *Slots[T]) Get(i int, mac string) (v T, ok bool) {
	if i < len(s.slots) && s.slots[i].mac == mac {
		return s.slots[i].v, true
	}
	return v, false
}

// Set fills slot i with mac's entry. Rows are resolved in order, so i is
// at most one past the last slot; a larger i is ignored. Slots past the
// end of a shorter report keep their entries: they are still right for
// their MACs.
func (s *Slots[T]) Set(i int, mac string, v T) {
	switch {
	case i < len(s.slots):
		s.slots[i] = slot[T]{mac: mac, v: v}
	case i == len(s.slots):
		s.slots = append(s.slots, slot[T]{mac: mac, v: v})
	}
}
