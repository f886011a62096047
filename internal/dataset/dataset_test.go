package dataset

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/configspace"
)

// testJob builds a small 2x3 job with hand-picked runtimes and prices, and
// two extra metrics: energy and carbon.
func testJob(t *testing.T) *Job {
	t.Helper()
	space, err := configspace.New([]configspace.Dimension{
		{Name: "vm", Values: []float64{0, 1}, Labels: []string{"small", "large"}},
		{Name: "workers", Values: []float64{2, 4, 8}},
	}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	// Config IDs follow lexicographic index order:
	// 0:(small,2) 1:(small,4) 2:(small,8) 3:(large,2) 4:(large,4) 5:(large,8)
	runtimes := []float64{1000, 600, 400, 500, 300, 200}
	prices := []float64{0.2, 0.4, 0.8, 0.6, 1.2, 2.4}
	measurements := make([]Measurement, space.Size())
	energy := make([]float64, space.Size())
	carbon := make([]float64, space.Size())
	for id := 0; id < space.Size(); id++ {
		measurements[id] = Measurement{
			ConfigID:         id,
			RuntimeSeconds:   runtimes[id],
			UnitPricePerHour: prices[id],
			Cost:             runtimes[id] / 3600 * prices[id],
		}
		energy[id] = float64(id) * 10
		carbon[id] = 0.1 + float64(id)/3
	}
	job, err := NewJob("test-job", space, measurements, 1200, map[string][]float64{"energy": energy, "carbon": carbon})
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}
	return job
}

func TestNewJobValidation(t *testing.T) {
	space, err := configspace.New([]configspace.Dimension{
		{Name: "a", Values: []float64{1, 2}},
	}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	good := []Measurement{
		{ConfigID: 0, RuntimeSeconds: 10, UnitPricePerHour: 1, Cost: 10.0 / 3600},
		{ConfigID: 1, RuntimeSeconds: 20, UnitPricePerHour: 1, Cost: 20.0 / 3600},
	}
	tests := []struct {
		name         string
		jobName      string
		space        *configspace.Space
		measurements []Measurement
		timeout      float64
		extra        map[string][]float64
	}{
		{name: "empty name", jobName: "", space: space, measurements: good},
		{name: "nil space", jobName: "j", space: nil, measurements: good},
		{name: "negative timeout", jobName: "j", space: space, measurements: good, timeout: -1},
		{name: "wrong count", jobName: "j", space: space, measurements: good[:1]},
		{name: "duplicate config", jobName: "j", space: space, measurements: []Measurement{good[0], good[0]}},
		{name: "out of range config", jobName: "j", space: space, measurements: []Measurement{good[0], {ConfigID: 9, RuntimeSeconds: 1, UnitPricePerHour: 1}}},
		{name: "invalid measurement", jobName: "j", space: space, measurements: []Measurement{good[0], {ConfigID: 1, RuntimeSeconds: -1, UnitPricePerHour: 1}}},
		// A metric recorded on only some configurations (a ragged metric
		// set) has no column form: a short column or a NaN cell is refused.
		{name: "short extra column", jobName: "j", space: space, measurements: good, extra: map[string][]float64{"energy": {1}}},
		{name: "long extra column", jobName: "j", space: space, measurements: good, extra: map[string][]float64{"energy": {1, 2, 3}}},
		{name: "NaN extra value", jobName: "j", space: space, measurements: good, extra: map[string][]float64{"energy": {1, math.NaN()}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewJob(tt.jobName, tt.space, tt.measurements, tt.timeout, tt.extra); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
	if _, err := NewJob("ok", space, good, 0, nil); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	if _, err := NewJob("ok", space, good, 0, map[string][]float64{"energy": {1, math.Inf(1)}}); err != nil {
		t.Errorf("valid job with an extra metric rejected: %v", err)
	}
}

// TestNewJobOrdersMeasurements: measurements passed out of ID order are
// stored by ID, and each extra value follows its measurement.
func TestNewJobOrdersMeasurements(t *testing.T) {
	space, err := configspace.New([]configspace.Dimension{{Name: "a", Values: []float64{1, 2, 3}}}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	measurements := []Measurement{
		{ConfigID: 2, RuntimeSeconds: 30, UnitPricePerHour: 1, Cost: 30.0 / 3600},
		{ConfigID: 0, RuntimeSeconds: 10, UnitPricePerHour: 1, Cost: 10.0 / 3600},
		{ConfigID: 1, RuntimeSeconds: 20, UnitPricePerHour: 1, Cost: 20.0 / 3600},
	}
	job, err := NewJob("shuffled", space, measurements, 0, map[string][]float64{"energy": {300, 100, 200}})
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}
	for id := range 3 {
		m, err := job.Measurement(id)
		if err != nil {
			t.Fatalf("Measurement(%d) error: %v", id, err)
		}
		if m.ConfigID != id || m.RuntimeSeconds != float64(10*(id+1)) {
			t.Errorf("Measurement(%d) = %+v", id, m)
		}
		if got := job.Extra(id)["energy"]; got != float64(100*(id+1)) {
			t.Errorf("Extra(%d)[energy] = %v, want %v", id, got, 100*(id+1))
		}
	}
	if got := job.ExtraMetric("energy"); !slices.Equal(got, []float64{100, 200, 300}) {
		t.Errorf("ExtraMetric(energy) = %v, want [100 200 300]", got)
	}
}

func TestExtraMetrics(t *testing.T) {
	job := testJob(t)
	if got := job.ExtraNames(); !slices.Equal(got, []string{"carbon", "energy"}) {
		t.Errorf("ExtraNames = %v, want [carbon energy]", got)
	}
	if got := job.ExtraMetric("missing"); got != nil {
		t.Errorf("ExtraMetric(missing) = %v, want nil", got)
	}
	extra := job.Extra(4)
	if len(extra) != 2 || extra["energy"] != 40 || extra["carbon"] != 0.1+4.0/3 {
		t.Errorf("Extra(4) = %v", extra)
	}
	// Every call hands out a fresh map and a fresh column.
	extra["energy"] = -1
	job.ExtraMetric("energy")[4] = -1
	if got := job.Extra(4)["energy"]; got != 40 {
		t.Errorf("Extra(4)[energy] after mutating a returned copy = %v, want 40", got)
	}
	space, err := configspace.New([]configspace.Dimension{{Name: "a", Values: []float64{1}}}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	bare, err := NewJob("bare", space, []Measurement{{ConfigID: 0, RuntimeSeconds: 1, UnitPricePerHour: 1}}, 0, nil)
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}
	if bare.Extra(0) != nil || bare.ExtraNames() != nil {
		t.Errorf("job without extra metrics: Extra(0) = %v, ExtraNames = %v, want nil", bare.Extra(0), bare.ExtraNames())
	}
}

// TestMeasurementDoesNotAllocate: replaying a stored measurement is free.
func TestMeasurementDoesNotAllocate(t *testing.T) {
	job := testJob(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := job.Measurement(3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Measurement allocates %v times, want 0", allocs)
	}
}

func TestMeasurementValidate(t *testing.T) {
	valid := Measurement{ConfigID: 0, RuntimeSeconds: 10, UnitPricePerHour: 0.5, Cost: 1}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid measurement rejected: %v", err)
	}
	invalid := []Measurement{
		{ConfigID: -1, RuntimeSeconds: 1, UnitPricePerHour: 1},
		{ConfigID: 0, RuntimeSeconds: math.NaN(), UnitPricePerHour: 1},
		{ConfigID: 0, RuntimeSeconds: 1, UnitPricePerHour: 0},
		{ConfigID: 0, RuntimeSeconds: 1, UnitPricePerHour: 1, Cost: -2},
	}
	for i, m := range invalid {
		if err := m.Validate(); err == nil {
			t.Errorf("invalid measurement %d accepted: %+v", i, m)
		}
	}
}

func TestJobAccessors(t *testing.T) {
	job := testJob(t)
	if job.Name() != "test-job" {
		t.Errorf("Name = %q", job.Name())
	}
	if job.Size() != 6 {
		t.Errorf("Size = %d, want 6", job.Size())
	}
	if job.TimeoutSeconds() != 1200 {
		t.Errorf("TimeoutSeconds = %v", job.TimeoutSeconds())
	}
	m, err := job.Measurement(3)
	if err != nil {
		t.Fatalf("Measurement error: %v", err)
	}
	if m.ConfigID != 3 || m.RuntimeSeconds != 500 {
		t.Errorf("Measurement(3) = %+v", m)
	}
	if _, err := job.Measurement(-1); err == nil {
		t.Error("negative config ID should error")
	}
	if _, err := job.Measurement(6); err == nil {
		t.Error("out-of-range config ID should error")
	}
	if got := len(job.Measurements()); got != 6 {
		t.Errorf("Measurements length = %d", got)
	}
}

func TestMeanCost(t *testing.T) {
	job := testJob(t)
	want := 0.0
	for _, m := range job.Measurements() {
		want += m.Cost
	}
	want /= 6
	if got := job.MeanCost(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanCost = %v, want %v", got, want)
	}
}

func TestOptimumAndFeasibility(t *testing.T) {
	job := testJob(t)
	// With Tmax = 450s only configs 2 (400s, cost 0.0889) and 5 (200s, cost
	// 0.1333) and 4 (300s, cost 0.1) are feasible; the optimum is config 2.
	opt, err := job.Optimum(450)
	if err != nil {
		t.Fatalf("Optimum error: %v", err)
	}
	if opt.ConfigID != 2 {
		t.Errorf("Optimum config = %d, want 2", opt.ConfigID)
	}
	feasible, err := job.Feasible(0, 450)
	if err != nil || feasible {
		t.Errorf("Feasible(0,450) = %v, %v, want false, nil", feasible, err)
	}
	feasible, err = job.Feasible(5, 450)
	if err != nil || !feasible {
		t.Errorf("Feasible(5,450) = %v, %v, want true, nil", feasible, err)
	}
	if got := job.FeasibleFraction(450); got != 0.5 {
		t.Errorf("FeasibleFraction(450) = %v, want 0.5", got)
	}
	if _, err := job.Optimum(10); !errors.Is(err, ErrNoFeasibleConfig) {
		t.Errorf("Optimum with impossible constraint error = %v, want ErrNoFeasibleConfig", err)
	}
}

func TestTimedOutConfigsAreInfeasible(t *testing.T) {
	space, err := configspace.New([]configspace.Dimension{{Name: "a", Values: []float64{1, 2}}}, nil)
	if err != nil {
		t.Fatalf("configspace.New error: %v", err)
	}
	measurements := []Measurement{
		{ConfigID: 0, RuntimeSeconds: 600, UnitPricePerHour: 1, Cost: 600.0 / 3600, TimedOut: true},
		{ConfigID: 1, RuntimeSeconds: 300, UnitPricePerHour: 1, Cost: 300.0 / 3600},
	}
	job, err := NewJob("timeouts", space, measurements, 600, nil)
	if err != nil {
		t.Fatalf("NewJob error: %v", err)
	}
	feasible, err := job.Feasible(0, 1000)
	if err != nil || feasible {
		t.Errorf("timed-out config reported feasible: %v, %v", feasible, err)
	}
	opt, err := job.Optimum(1000)
	if err != nil {
		t.Fatalf("Optimum error: %v", err)
	}
	if opt.ConfigID != 1 {
		t.Errorf("Optimum = %d, want 1", opt.ConfigID)
	}
}

func TestRuntimeForFeasibleFraction(t *testing.T) {
	job := testJob(t)
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}
	if got := job.FeasibleFraction(tmax); got != 0.5 {
		t.Errorf("FeasibleFraction at derived Tmax = %v, want 0.5 (Tmax=%v)", got, tmax)
	}
	if _, err := job.RuntimeForFeasibleFraction(0); err == nil {
		t.Error("zero fraction should error")
	}
	if _, err := job.RuntimeForFeasibleFraction(1.5); err == nil {
		t.Error("fraction above one should error")
	}
}

func TestNormalizedCosts(t *testing.T) {
	job := testJob(t)
	normalized, err := job.NormalizedCosts(450)
	if err != nil {
		t.Fatalf("NormalizedCosts error: %v", err)
	}
	if len(normalized) != 6 {
		t.Fatalf("NormalizedCosts length = %d", len(normalized))
	}
	if normalized[0] > 1+1e-12 {
		t.Errorf("smallest normalized cost = %v, want <= 1", normalized[0])
	}
	for i := 1; i < len(normalized); i++ {
		if normalized[i] < normalized[i-1] {
			t.Errorf("normalized costs not sorted at %d", i)
		}
	}
}

func TestCountWithinFactor(t *testing.T) {
	job := testJob(t)
	count, err := job.CountWithinFactor(450, 2)
	if err != nil {
		t.Fatalf("CountWithinFactor error: %v", err)
	}
	// Feasible costs: cfg2=0.0889, cfg4=0.1, cfg5=0.1333; all within 2x of 0.0889.
	if count != 3 {
		t.Errorf("CountWithinFactor = %d, want 3", count)
	}
	if _, err := job.CountWithinFactor(450, 0.5); err == nil {
		t.Error("factor below 1 should error")
	}
}
