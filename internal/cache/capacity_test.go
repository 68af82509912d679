package cache

import "testing"

// TestCapacityAccessors pins that every cache flavor reports the budget it
// was constructed with — the sizing knob scenario sweeps read back.
func TestCapacityAccessors(t *testing.T) {
	if got := NewLRU(100).Capacity(); got != 100 {
		t.Errorf("LRU Capacity = %d, want 100", got)
	}
	if got := NewIDLRU(200).Capacity(); got != 200 {
		t.Errorf("IDLRU Capacity = %d, want 200", got)
	}
}
