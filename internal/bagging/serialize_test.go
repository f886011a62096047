package bagging

import (
	"errors"
	"testing"
)

func TestEnsembleStateRejectsInvalid(t *testing.T) {
	if _, err := New(Params{}, 1).State(); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained State error = %v, want ErrNotTrained", err)
	}
}
