package lynceus

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// snapshotFixtureCampaign reproduces the golden scout72-la1 campaign and
// returns its completed tuner.
func snapshotFixtureCampaign(t *testing.T) *Tuner {
	t.Helper()
	f := fixtureNamed(t, "scout72-la1")
	env, opts := f.inputs(t, f.seed)
	tuner := startTuner(t, f.cfg, env, opts, nil)
	runTunerResult(t, tuner)
	return tuner
}

// TestSnapshotGoldenFixture pins the version-1 snapshot wire format from both
// sides. Written: the serialized bytes of the golden scout72-la1 campaign
// must match golden_snapshot_v1_written.json byte for byte (regenerate with
// -update-golden only on a deliberate format change — and bump
// SnapshotVersion when a reader of the old format could misread the new one).
// Read: golden_snapshot_v1.json is a snapshot as an older build wrote it —
// with the fitted-ensemble field this build no longer writes — and is never
// regenerated; a build must keep resuming it to the recommendation pinned by
// the golden campaign file.
func TestSnapshotGoldenFixture(t *testing.T) {
	tuner := snapshotFixtureCampaign(t)
	snap, err := tuner.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	written := filepath.Join("testdata", "golden_snapshot_v1_written.json")
	if *updateGolden {
		if err := os.WriteFile(written, snap, 0o644); err != nil {
			t.Fatalf("writing fixture: %v", err)
		}
		return
	}
	want, err := os.ReadFile(written)
	if err != nil {
		t.Fatalf("reading fixture (re-run with -update-golden to regenerate): %v", err)
	}
	if !bytes.Equal(snap, want) {
		t.Fatalf("snapshot bytes diverged from the committed v%d fixture (%d vs %d bytes); "+
			"if the format change is deliberate, regenerate with -update-golden",
			core.SnapshotVersion, len(snap), len(want))
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "golden_snapshot_v1.json"))
	if err != nil {
		t.Fatalf("reading the read-side fixture: %v", err)
	}

	// The committed fixture must resume and report the recommendation pinned
	// by the golden campaign file.
	var golden struct {
		Trials      []int `json:"trials"`
		Recommended int   `json:"recommended"`
	}
	goldenData, err := os.ReadFile(filepath.Join("testdata", "golden_scout72-la1.json"))
	if err != nil {
		t.Fatalf("reading golden campaign: %v", err)
	}
	if err := json.Unmarshal(goldenData, &golden); err != nil {
		t.Fatalf("parsing golden campaign: %v", err)
	}
	f := fixtureNamed(t, "scout72-la1")
	env, _ := f.inputs(t, f.seed)
	resumed, err := ResumeTuner(f.cfg, env, fixture)
	if err != nil {
		t.Fatalf("ResumeTuner from fixture: %v", err)
	}
	if !resumed.Done() || !errors.Is(resumed.FinishReason(), ErrBudgetExhausted) {
		t.Fatalf("resumed fixture campaign done=%v reason=%v, want done on budget", resumed.Done(), resumed.FinishReason())
	}
	got, err := resumed.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if len(got.Trials) != len(golden.Trials) || got.Recommended.Config.ID != golden.Recommended {
		t.Fatalf("fixture resumed to %d trials rec %d, golden pins %d trials rec %d",
			len(got.Trials), got.Recommended.Config.ID, len(golden.Trials), golden.Recommended)
	}
	for i, tr := range got.Trials {
		if tr.Config.ID != golden.Trials[i] {
			t.Fatalf("fixture trial %d is config %d, golden %d", i, tr.Config.ID, golden.Trials[i])
		}
	}
}

// TestSnapshotCarriesStateOnly is the size ratchet of the snapshot: it holds
// the campaign's state — options, cursors, one record per trial — and nothing
// derivable from it, so a Tensorflow-384 campaign at 32 trials serializes to
// a few KB; anything model-sized riding along would be tens of KB and grow
// with every trial.
func TestSnapshotCarriesStateOnly(t *testing.T) {
	f := fixtureNamed(t, "tensorflow384-la1")
	env, opts := f.inputs(t, f.seed)
	opts.Budget *= 5
	tuner := startTuner(t, TunerConfig{Myopic: true}, env, opts, nil)
	for len(tuner.Trials()) < 32 {
		done, err := tuner.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			t.Fatalf("campaign finished after %d trials, before the 32 the ratchet measures", len(tuner.Trials()))
		}
	}
	snap, err := tuner.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(snap) >= 10<<10 {
		t.Fatalf("snapshot at 32 trials is %d bytes, want under 10 KB", len(snap))
	}
}

// TestSnapshotRejectsFutureVersions guards the format-versioning contract: a
// snapshot from a newer format must fail loudly, not resume from
// misinterpreted state.
func TestSnapshotRejectsFutureVersions(t *testing.T) {
	tuner := snapshotFixtureCampaign(t)
	snap, err := tuner.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(snap, &raw); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	raw["version"] = json.RawMessage("999")
	future, err := json.Marshal(raw)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	f := fixtureNamed(t, "scout72-la1")
	env, _ := f.inputs(t, f.seed)
	if _, err := ResumeTuner(f.cfg, env, future); err == nil {
		t.Error("future snapshot version accepted by ResumeTuner")
	}
}
