package numeric

import "testing"

// TestSplitMix64ReferenceStream checks the finalizer against the first
// outputs of the reference SplitMix64 generator seeded with 0.
func TestSplitMix64ReferenceStream(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}
	var state uint64
	for i, w := range want {
		state += 0x9E3779B97F4A7C15
		if got := SplitMix64(state); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestSampledStatsCapsAtSpaceSize checks that a sample count above the
// space size draws every ID exactly once.
func TestSampledStatsCapsAtSpaceSize(t *testing.T) {
	eval := func(id int) (float64, float64, error) { return float64(id), 1, nil }
	xQ, mean, err := SampledStats("test", 10, 1, 1, 0, 50, eval)
	if err != nil {
		t.Fatalf("SampledStats: %v", err)
	}
	if xQ != 9 || mean != 1 {
		t.Errorf("SampledStats = (%v, %v), want (9, 1)", xQ, mean)
	}
}
