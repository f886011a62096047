package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/configspace"
)

// randomJob generates a random (but valid) job for property-based testing.
func randomJob(rng *rand.Rand) (*Job, error) {
	nDims := rng.Intn(3) + 1
	dims := make([]configspace.Dimension, nDims)
	for d := range dims {
		nVals := rng.Intn(3) + 2
		vals := make([]float64, nVals)
		for v := range vals {
			vals[v] = float64(v)*float64(rng.Intn(5)+1) + rng.Float64()
		}
		dims[d] = configspace.Dimension{Name: string(rune('a' + d)), Values: vals}
	}
	space, err := configspace.New(dims, nil)
	if err != nil {
		return nil, err
	}
	measurements := make([]Measurement, space.Size())
	energy := make([]float64, space.Size())
	for id := 0; id < space.Size(); id++ {
		runtime := rng.Float64()*3000 + 1
		price := rng.Float64()*2 + 0.01
		measurements[id] = Measurement{
			ConfigID:         id,
			RuntimeSeconds:   runtime,
			UnitPricePerHour: price,
			Cost:             runtime / 3600 * price,
			TimedOut:         rng.Float64() < 0.1,
		}
		energy[id] = rng.Float64() * 100
	}
	return NewJob("property-job", space, measurements, 3600, map[string][]float64{"energy": energy})
}

// TestQuickCSVRoundTripPreservesMeasurements: writing a job to CSV and
// reading it back yields the same multiset of (runtime, price, cost,
// timed_out, extras), regardless of the space's shape.
func TestQuickCSVRoundTripPreservesMeasurements(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		job, err := randomJob(rng)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, job); err != nil {
			return false
		}
		parsed, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if parsed.Size() != job.Size() || parsed.TimeoutSeconds() != job.TimeoutSeconds() {
			return false
		}
		// Compare measurement multisets keyed by the configuration
		// description (IDs may be re-enumerated).
		origByDesc := make(map[string]Measurement, job.Size())
		for _, m := range job.Measurements() {
			cfg, err := job.Space().Config(m.ConfigID)
			if err != nil {
				return false
			}
			origByDesc[job.Space().Describe(cfg)] = m
		}
		for _, m := range parsed.Measurements() {
			cfg, err := parsed.Space().Config(m.ConfigID)
			if err != nil {
				return false
			}
			orig, ok := origByDesc[parsed.Space().Describe(cfg)]
			if !ok {
				return false
			}
			if math.Abs(m.RuntimeSeconds-orig.RuntimeSeconds) > 1e-6 ||
				math.Abs(m.Cost-orig.Cost) > 1e-6 ||
				m.TimedOut != orig.TimedOut ||
				math.Abs(parsed.Extra(m.ConfigID)["energy"]-job.Extra(orig.ConfigID)["energy"]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("CSV round-trip property failed: %v", err)
	}
}

// TestQuickDerivedStatisticsConsistent: the optimum is feasible, has the
// lowest cost among feasible configurations, and the feasible fraction at the
// derived Tmax is close to the requested one.
func TestQuickDerivedStatisticsConsistent(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		job, err := randomJob(rng)
		if err != nil {
			return false
		}
		tmax, err := job.RuntimeForFeasibleFraction(0.5)
		if err != nil {
			// A job where every configuration timed out has no feasible
			// runtime; skip those draws.
			return true
		}
		opt, err := job.Optimum(tmax)
		if err != nil {
			return true
		}
		feasible, err := job.Feasible(opt.ConfigID, tmax)
		if err != nil || !feasible {
			return false
		}
		for _, m := range job.Measurements() {
			ok, err := job.Feasible(m.ConfigID, tmax)
			if err != nil {
				return false
			}
			if ok && m.Cost < opt.Cost-1e-12 {
				return false
			}
		}
		frac := job.FeasibleFraction(tmax)
		return frac > 0 && frac <= 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("derived statistics property failed: %v", err)
	}
}
