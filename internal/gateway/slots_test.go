package gateway

import "testing"

// TestSlots: a slot answers only for the MAC it was filled for, Set
// overwrites or appends in row order, and a slot past the end of a
// shorter report keeps its entry.
func TestSlots(t *testing.T) {
	var s Slots[int]
	if _, ok := s.Get(0, "a"); ok {
		t.Fatal("empty slots hit")
	}
	s.Set(0, "a", 10)
	s.Set(1, "b", 11)
	s.Set(3, "d", 13) // not the next row: ignored
	if v, ok := s.Get(0, "a"); !ok || v != 10 {
		t.Errorf("Get(0, a) = %d, %v; want 10, true", v, ok)
	}
	if _, ok := s.Get(1, "a"); ok {
		t.Error("slot 1 answered for a MAC it was not filled for")
	}
	if _, ok := s.Get(3, "d"); ok {
		t.Error("Set past the next row filled a slot")
	}
	s.Set(1, "c", 12) // a device moved into row 1
	if _, ok := s.Get(1, "b"); ok {
		t.Error("overwritten slot still answers for its old MAC")
	}
	if v, ok := s.Get(1, "c"); !ok || v != 12 {
		t.Errorf("Get(1, c) = %d, %v; want 12, true", v, ok)
	}
	s.Set(2, "d", 13)
	if v, ok := s.Get(2, "d"); !ok || v != 13 {
		t.Errorf("Get(2, d) = %d, %v; want 13, true", v, ok)
	}
}
