package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// frozenTablesDigest is the SHA-256 that TestExperimentTablesFrozen computes
// over the CSV of every table of every experiment but tab3.
const frozenTablesDigest = "65442f2839df58621cda2c873a68ce1fb81946763f4076e0cba5d9b71e17997c"

// TestExperimentTablesFrozen pins the output of the evaluation harness on a
// small suite: every table of every experiment, rendered as CSV, hashes to
// one digest. tab3 is left out because it reports wall-clock time. A change
// to the harness that is meant to leave its output alone must leave this
// digest unchanged.
func TestExperimentTablesFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping every experiment in -short mode")
	}
	s := NewSuite(Options{
		Runs:                 1,
		Seed:                 3,
		TensorflowJobLimit:   1,
		ScoutJobLimit:        1,
		CherryPickJobLimit:   1,
		ServesimProfileLimit: 1,
		Lookahead:            1,
		Lookaheads:           []int{0, 1},
		BudgetMultipliers:    []float64{1, 3},
		EnsembleTrees:        5,
	})
	h := sha256.New()
	for _, id := range IDs() {
		if id == "tab3" {
			continue
		}
		tables, err := s.Run(id)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		h.Write([]byte(id + "\n"))
		for _, table := range tables {
			if err := table.WriteCSV(h); err != nil {
				t.Fatalf("%s: WriteCSV: %v", id, err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frozenTablesDigest {
		t.Errorf("experiment tables digest = %s, want %s", got, frozenTablesDigest)
	}
}
