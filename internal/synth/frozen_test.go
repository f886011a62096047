package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/dataset"
)

// frozenTablesDigest is the SHA-256 that TestGeneratedTablesFrozen computes
// over every generated lookup table. Any change to a generator's output, its
// noise stream included, changes it.
const frozenTablesDigest = "7c5894a468b78bb992cafe0c1ebf82fe7afabb83bca86647c437b9497c4761e1"

// TestGeneratedTablesFrozen pins the bits of every measurement the dataset
// generators produce — the three Tensorflow, eighteen Scout and five
// CherryPick jobs at seeds 1 and 42 — plus the large-grid environments on 64
// configurations spread over each space. A generator refactor must leave the
// digest unchanged.
func TestGeneratedTablesFrozen(t *testing.T) {
	h := sha256.New()
	for _, seed := range []int64{1, 42} {
		for _, gen := range []func(int64) ([]*dataset.Job, error){TensorflowJobs, ScoutJobs, CherryPickJobs} {
			jobs, err := gen(seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, job := range jobs {
				hashJob(h, job)
			}
		}
		envs, err := LargeGridJobs(seed)
		if err != nil {
			t.Fatalf("LargeGridJobs(%d): %v", seed, err)
		}
		for _, env := range envs {
			h.Write([]byte(env.Name()))
			size := env.Space().Size()
			for i := 0; i < 64; i++ {
				cfg, err := env.Space().Config(i*size/64 + i)
				if err != nil {
					t.Fatalf("%s config: %v", env.Name(), err)
				}
				res, err := env.Run(cfg)
				if err != nil {
					t.Fatalf("%s Run(%d): %v", env.Name(), cfg.ID, err)
				}
				hashFloats(h, float64(cfg.ID), res.RuntimeSeconds, res.UnitPricePerHour, res.Cost)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frozenTablesDigest {
		t.Errorf("generated tables digest = %s, want %s", got, frozenTablesDigest)
	}
}

// hashJob hashes every measurement in ID order, each followed by its extra
// metrics in name order.
func hashJob(h hash.Hash, job *dataset.Job) {
	h.Write([]byte(job.Name()))
	names := job.ExtraNames()
	cols := make([][]float64, len(names))
	for k, name := range names {
		cols[k] = job.ExtraMetric(name)
	}
	for _, m := range job.Measurements() {
		timedOut := 0.0
		if m.TimedOut {
			timedOut = 1
		}
		hashFloats(h, float64(m.ConfigID), m.RuntimeSeconds, m.UnitPricePerHour, m.Cost, timedOut)
		for k, name := range names {
			h.Write([]byte(name))
			hashFloats(h, cols[k][m.ConfigID])
		}
	}
}

func hashFloats(h hash.Hash, xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}
