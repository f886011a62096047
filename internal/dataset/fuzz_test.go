package dataset_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/configspace"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// FuzzReadCSV feeds arbitrary bytes to ReadCSV, the decoder of the lookup
// tables the CLIs load from disk. It must never panic, and a job it accepts
// must survive WriteCSV → ReadCSV with bitwise-equal measurements and extra
// columns; a difference is reported at the first field that differs. The
// corpus is seeded from WriteCSV of a Tensorflow job, a Scout job (with its
// extra metric columns) and a table with a label column, plus the defect the
// target found: a label read as a comment line.
func FuzzReadCSV(f *testing.F) {
	tf, err := synth.TensorflowJob(synth.CNN, 42)
	if err != nil {
		f.Fatalf("TensorflowJob: %v", err)
	}
	scout, err := synth.ScoutJob(synth.ScoutJobNames()[0], 7)
	if err != nil {
		f.Fatalf("ScoutJob: %v", err)
	}
	for _, job := range []*dataset.Job{tf, scout, labelledJob(f)} {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, job); err != nil {
			f.Fatalf("WriteCSV %s: %v", job.Name(), err)
		}
		f.Add(buf.Bytes())
	}
	// A label starting with '#' heads a data line once written unquoted:
	// it must not be read as a comment.
	f.Add([]byte("d,runtime_seconds,unit_price_per_hour\n\"#a\",1,1\nb,2,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := dataset.ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, job); err != nil {
			t.Fatalf("WriteCSV of an accepted job: %v", err)
		}
		again, err := dataset.ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV's output: %v\n%s", err, buf.Bytes())
		}
		if diff := jobDiff(job, again); diff != "" {
			t.Fatalf("WriteCSV → ReadCSV changed the job: %s\n%s", diff, buf.Bytes())
		}
	})
}

// labelledJob is a 2×3 table whose first dimension is labelled.
func labelledJob(tb testing.TB) *dataset.Job {
	tb.Helper()
	space, err := configspace.New([]configspace.Dimension{
		{Name: "family", Values: []float64{0, 1}, Labels: []string{"c5", "m5, large"}},
		{Name: "nodes", Values: []float64{2, 4, 8}},
	}, nil)
	if err != nil {
		tb.Fatalf("configspace.New: %v", err)
	}
	var ms []dataset.Measurement
	energy := make([]float64, space.Size())
	for id := 0; id < space.Size(); id++ {
		runtime := 100 + 37.5*float64(id)
		price := 0.17 * float64(1+id%3)
		ms = append(ms, dataset.Measurement{ConfigID: id, RuntimeSeconds: runtime, UnitPricePerHour: price, Cost: runtime / 3600 * price, TimedOut: id == 4})
		energy[id] = 1e-3 * float64(id*id)
	}
	job, err := dataset.NewJob("labelled", space, ms, 300, map[string][]float64{"energy": energy})
	if err != nil {
		tb.Fatalf("NewJob: %v", err)
	}
	return job
}

// jobDiff names the first measurement or extra-column value that differs
// between two jobs bit for bit, or returns "".
func jobDiff(a, b *dataset.Job) string {
	am, bm := a.Measurements(), b.Measurements()
	if len(am) != len(bm) {
		return fmt.Sprintf("%d measurements, then %d", len(am), len(bm))
	}
	for i := range am {
		x, y := am[i], bm[i]
		switch {
		case x.ConfigID != y.ConfigID:
			return fmt.Sprintf("measurement %d: config %d, then %d", i, x.ConfigID, y.ConfigID)
		case math.Float64bits(x.RuntimeSeconds) != math.Float64bits(y.RuntimeSeconds):
			return fmt.Sprintf("config %d: runtime %v, then %v", x.ConfigID, x.RuntimeSeconds, y.RuntimeSeconds)
		case math.Float64bits(x.UnitPricePerHour) != math.Float64bits(y.UnitPricePerHour):
			return fmt.Sprintf("config %d: unit price %v, then %v", x.ConfigID, x.UnitPricePerHour, y.UnitPricePerHour)
		case math.Float64bits(x.Cost) != math.Float64bits(y.Cost):
			return fmt.Sprintf("config %d: cost %v, then %v", x.ConfigID, x.Cost, y.Cost)
		case x.TimedOut != y.TimedOut:
			return fmt.Sprintf("config %d: timed out %v, then %v", x.ConfigID, x.TimedOut, y.TimedOut)
		}
	}
	if !slices.Equal(a.ExtraNames(), b.ExtraNames()) {
		return fmt.Sprintf("extra metrics %q, then %q", a.ExtraNames(), b.ExtraNames())
	}
	for _, name := range a.ExtraNames() {
		x, y := a.ExtraMetric(name), b.ExtraMetric(name)
		for id := range x {
			if math.Float64bits(x[id]) != math.Float64bits(y[id]) {
				return fmt.Sprintf("config %d: extra metric %q %v, then %v", id, name, x[id], y[id])
			}
		}
	}
	return ""
}
