package servesim

import (
	"math"
	"strings"
	"testing"
)

// TestEnvStateRoundTrip pins the StatefulEnvironment contract the serving
// layer's crash recovery rests on: EnvState captures the per-configuration
// run counters, and a fresh Env with the same seed restored from that state
// continues the exact noise streams of the original — a restarted server
// replays a resumed campaign's environment bitwise.
func TestEnvStateRoundTrip(t *testing.T) {
	env := testEnv(t, 42)
	cfg, err := env.Space().Config(17)
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	other, err := env.Space().Config(3)
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	// Burn a few draws so the counters are nontrivial and uneven.
	for i := 0; i < 3; i++ {
		if _, err := env.Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if _, err := env.Run(other); err != nil {
		t.Fatalf("Run: %v", err)
	}

	state, err := env.EnvState()
	if err != nil {
		t.Fatalf("EnvState: %v", err)
	}
	restored := testEnv(t, 42)
	if err := restored.RestoreEnvState(state); err != nil {
		t.Fatalf("RestoreEnvState: %v", err)
	}

	// Both environments must now produce bit-identical streams.
	for i := 0; i < 3; i++ {
		for _, c := range []int{17, 3, 50} {
			view, err := env.Space().Config(c)
			if err != nil {
				t.Fatalf("Config: %v", err)
			}
			want, err := env.Run(view)
			if err != nil {
				t.Fatalf("original Run: %v", err)
			}
			got, err := restored.Run(view)
			if err != nil {
				t.Fatalf("restored Run: %v", err)
			}
			if math.Float64bits(got.RuntimeSeconds) != math.Float64bits(want.RuntimeSeconds) ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("draw %d of config %d diverged: runtime %x vs %x", i, c,
					math.Float64bits(got.RuntimeSeconds), math.Float64bits(want.RuntimeSeconds))
			}
		}
	}
}

func TestEnvStateRejectsCorruptState(t *testing.T) {
	env := testEnv(t, 1)
	if err := env.RestoreEnvState([]byte("{")); err == nil {
		t.Fatal("RestoreEnvState accepted truncated JSON")
	}
	if err := env.RestoreEnvState([]byte(`{"runs":{"5":-1}}`)); err == nil {
		t.Fatal("RestoreEnvState accepted a negative run counter")
	}
	// Two negative counters: the error names the lower ID every time, not
	// whichever entry map order reaches first.
	for i := 0; i < 20; i++ {
		err := env.RestoreEnvState([]byte(`{"runs":{"40":1,"17":-2,"9":-1,"3":2}}`))
		if err == nil || !strings.HasSuffix(err.Error(), "config 9") {
			t.Fatalf("restore %d: error %v, want one naming config 9", i, err)
		}
	}
}
