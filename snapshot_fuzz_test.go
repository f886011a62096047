package lynceus

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzResumeCampaign attacks the restart decoder with mutated snapshots of
// the golden scout72-la1 campaign: resuming never panics, and a snapshot it
// accepts round-trips — the resumed campaign's snapshot resumes too, to a
// campaign whose snapshot is the same bytes.
func FuzzResumeCampaign(f *testing.F) {
	for _, name := range []string{"golden_snapshot_v1.json", "golden_snapshot_v1_written.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	fx := fixtureNamed(f, "scout72-la1")
	env, _ := fx.inputs(f, fx.seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ResumeTuner(fx.cfg, env, data)
		if err != nil {
			return
		}
		snap, err := first.Snapshot()
		if err != nil {
			t.Fatalf("an accepted snapshot's campaign cannot snapshot: %v", err)
		}
		second, err := ResumeTuner(fx.cfg, env, snap)
		if err != nil {
			t.Fatalf("the snapshot of an accepted snapshot is rejected: %v\n%s", err, snap)
		}
		again, err := second.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot after the second resume: %v", err)
		}
		if !bytes.Equal(again, snap) {
			t.Fatalf("resume + snapshot changed the bytes:\n%s\nthen\n%s", snap, again)
		}
	})
}
