package regtree

import "testing"

func TestTreeStateRejectsUntrained(t *testing.T) {
	if _, err := (&Tree{}).State(); err == nil {
		t.Error("untrained tree serialized")
	}
}
