package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atomicfile"
)

func testSpec(id string) CampaignSpec {
	return CampaignSpec{
		ID:      id,
		Env:     EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 7},
		Tuner:   TunerSpec{Lookahead: 1},
		Options: OptionsSpec{Budget: 50, Seed: 7},
	}
}

func TestStoreSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if err := s.PutSpec(testSpec(id)); err != nil {
			t.Fatal(err)
		}
	}
	specs, err := s.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("Specs() returned %d, want 3", len(specs))
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if specs[i].ID != want {
			t.Fatalf("Specs()[%d].ID = %q, want %q (ID order)", i, specs[i].ID, want)
		}
	}
	if specs[0].Env.Kind != "tensorflow" || specs[0].Options.Budget != 50 {
		t.Fatalf("spec did not round-trip: %+v", specs[0])
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec(testSpec("c1")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Snapshot("c1"); err != nil || ok {
		t.Fatalf("Snapshot before any write: ok=%v err=%v, want ok=false err=nil", ok, err)
	}
	want := []byte(`{"version":1}`)
	if err := s.PutSnapshot("c1", want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Snapshot("c1")
	if err != nil || !ok {
		t.Fatalf("Snapshot: ok=%v err=%v", ok, err)
	}
	if string(got) != string(want) {
		t.Fatalf("snapshot round-trip: got %q, want %q", got, want)
	}
}

func TestStoreSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec(testSpec("c1")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a temp file that never got renamed.
	orphan := filepath.Join(dir, "c1", atomicfile.TempPrefix+"dead")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived reopening the store")
	}
}

func TestStoreSkipsUnacknowledgedCampaigns(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec(testSpec("real")); err != nil {
		t.Fatal(err)
	}
	// A directory without spec.json models a crash between MkdirAll and the
	// spec rename: the campaign was never acknowledged.
	if err := os.MkdirAll(filepath.Join(dir, "ghost"), 0o755); err != nil {
		t.Fatal(err)
	}
	specs, err := s.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].ID != "real" {
		t.Fatalf("Specs() = %v, want just [real]", specs)
	}
}

func TestStoreRemove(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec(testSpec("c1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	specs, err := s.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 0 {
		t.Fatalf("Specs() after Remove = %v, want empty", specs)
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"c-000001":  true,
		"my.job_2":  true,
		"":          false,
		"../escape": false,
		"-leading":  false,
		".hidden":   false,
		"has space": false,
		"has/slash": false,
	} {
		if got := ValidID(id); got != want {
			t.Errorf("ValidID(%q) = %v, want %v", id, got, want)
		}
	}
}
