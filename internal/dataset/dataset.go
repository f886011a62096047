// Package dataset represents profiled jobs as lookup tables, the same
// simulation substrate the paper uses for its evaluation (§5.2): every
// configuration of a job's space is associated with the runtime and cost that
// were measured (or, in this reproduction, synthesized) by running the job
// once on that configuration. Optimizers are then evaluated by replaying
// those measurements.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/configspace"
)

// ErrNoFeasibleConfig is returned when an operation requires at least one
// configuration meeting the runtime constraint and none exists.
var ErrNoFeasibleConfig = errors.New("dataset: no configuration satisfies the runtime constraint")

// Measurement is the outcome of profiling a job on one configuration.
type Measurement struct {
	// ConfigID identifies the configuration within the job's space.
	ConfigID int
	// RuntimeSeconds is the measured job runtime. When the job was forcefully
	// terminated, it equals the timeout.
	RuntimeSeconds float64
	// UnitPricePerHour is U(x): the rental price of the configuration's
	// cluster in USD per hour.
	UnitPricePerHour float64
	// Cost is C(x) = T(x) · U(x) under per-second billing, in USD.
	Cost float64
	// TimedOut reports whether the job hit the forceful-termination timeout.
	TimedOut bool
}

// Validate checks that the measurement is internally consistent.
func (m Measurement) Validate() error {
	if m.ConfigID < 0 {
		return fmt.Errorf("dataset: negative config ID %d", m.ConfigID)
	}
	if m.RuntimeSeconds < 0 || math.IsNaN(m.RuntimeSeconds) || math.IsInf(m.RuntimeSeconds, 0) {
		return fmt.Errorf("dataset: invalid runtime %v for config %d", m.RuntimeSeconds, m.ConfigID)
	}
	if m.UnitPricePerHour <= 0 || math.IsNaN(m.UnitPricePerHour) {
		return fmt.Errorf("dataset: invalid unit price %v for config %d", m.UnitPricePerHour, m.ConfigID)
	}
	if m.Cost < 0 || math.IsNaN(m.Cost) || math.IsInf(m.Cost, 0) {
		return fmt.Errorf("dataset: invalid cost %v for config %d", m.Cost, m.ConfigID)
	}
	return nil
}

// Job is a profiled job: a configuration space plus one measurement per
// configuration, and the extra constraint metrics (e.g. energy) kept
// column-wise.
type Job struct {
	name         string
	space        *configspace.Space
	measurements []Measurement
	// extraNames lists the extra metrics in sorted order; extraCols[k][id]
	// is metric extraNames[k] of configuration id.
	extraNames     []string
	extraCols      [][]float64
	timeoutSeconds float64
}

// NewJob builds a Job. measurements must contain exactly one entry per
// configuration of the space (matched by ConfigID). extra holds the
// additional constraint metrics of the multi-constraint extension, one column
// per metric name: extra[name][i] is the metric of measurements[i]. Every
// column holds a non-NaN value for every measurement, so a job records a
// metric on every configuration or on none. Pass nil when the job has no
// extra metrics. timeoutSeconds is the forceful-termination limit
// used when the data was collected; pass 0 when no timeout applies.
//
// The Job keeps measurements and the extra columns when measurements is
// already in configuration-ID order, and copies them into ID order
// otherwise; callers must not modify them afterwards.
func NewJob(name string, space *configspace.Space, measurements []Measurement, timeoutSeconds float64, extra map[string][]float64) (*Job, error) {
	if name == "" {
		return nil, errors.New("dataset: job requires a name")
	}
	if space == nil {
		return nil, errors.New("dataset: job requires a configuration space")
	}
	if timeoutSeconds < 0 {
		return nil, fmt.Errorf("dataset: negative timeout %v", timeoutSeconds)
	}
	n := space.Size()
	if len(measurements) != n {
		return nil, fmt.Errorf("dataset: %d measurements for a space of %d configurations",
			len(measurements), n)
	}
	inOrder := true
	for i := range measurements {
		m := &measurements[i]
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if m.ConfigID >= n {
			return nil, fmt.Errorf("dataset: measurement for config %d outside space of size %d",
				m.ConfigID, n)
		}
		inOrder = inOrder && m.ConfigID == i
	}
	var names []string
	var cols [][]float64
	if len(extra) > 0 {
		names = make([]string, 0, len(extra))
		for metric := range extra {
			names = append(names, metric)
		}
		slices.Sort(names)
		cols = make([][]float64, len(names))
		for k, metric := range names {
			col := extra[metric]
			if len(col) != n {
				return nil, fmt.Errorf("dataset: extra metric %q has %d values for %d measurements",
					metric, len(col), n)
			}
			if i := slices.IndexFunc(col, math.IsNaN); i >= 0 {
				return nil, fmt.Errorf("dataset: extra metric %q is NaN for config %d",
					metric, measurements[i].ConfigID)
			}
			cols[k] = col
		}
	}
	if !inOrder {
		var err error
		if measurements, cols, err = orderByID(measurements, cols); err != nil {
			return nil, err
		}
	}
	return &Job{
		name:           name,
		space:          space,
		measurements:   measurements,
		extraNames:     names,
		extraCols:      cols,
		timeoutSeconds: timeoutSeconds,
	}, nil
}

// orderByID copies measurements and the extra columns aligned with them
// into configuration-ID order, rejecting a configuration measured twice.
func orderByID(measurements []Measurement, cols [][]float64) ([]Measurement, [][]float64, error) {
	indexed := make([]Measurement, len(measurements))
	seen := make([]bool, len(measurements))
	for _, m := range measurements {
		if seen[m.ConfigID] {
			return nil, nil, fmt.Errorf("dataset: duplicate measurement for config %d", m.ConfigID)
		}
		seen[m.ConfigID] = true
		indexed[m.ConfigID] = m
	}
	ordered := make([][]float64, len(cols))
	for k, col := range cols {
		ordered[k] = make([]float64, len(col))
		for i, v := range col {
			ordered[k][measurements[i].ConfigID] = v
		}
	}
	return indexed, ordered, nil
}

// Name returns the job's name.
func (j *Job) Name() string { return j.name }

// Space returns the job's configuration space.
func (j *Job) Space() *configspace.Space { return j.space }

// TimeoutSeconds returns the forceful-termination limit (0 when none).
func (j *Job) TimeoutSeconds() float64 { return j.timeoutSeconds }

// Size returns the number of configurations of the job.
func (j *Job) Size() int { return len(j.measurements) }

// Measurement returns the measurement of the given configuration.
func (j *Job) Measurement(configID int) (Measurement, error) {
	if configID < 0 || configID >= len(j.measurements) {
		return Measurement{}, fmt.Errorf("dataset: config ID %d out of range [0,%d)", configID, len(j.measurements))
	}
	return j.measurements[configID], nil
}

// Measurements returns a copy of all measurements, ordered by configuration
// ID.
func (j *Job) Measurements() []Measurement {
	out := make([]Measurement, len(j.measurements))
	copy(out, j.measurements)
	return out
}

// ExtraNames returns the names of the job's extra metrics, sorted.
func (j *Job) ExtraNames() []string { return slices.Clone(j.extraNames) }

// ExtraMetric returns a copy of the named extra metric's column, indexed by
// configuration ID, or nil when the job does not record that metric.
func (j *Job) ExtraMetric(name string) []float64 {
	k, ok := slices.BinarySearch(j.extraNames, name)
	if !ok {
		return nil
	}
	return slices.Clone(j.extraCols[k])
}

// Extra returns the extra metrics of one configuration in a fresh map owned
// by the caller, or nil when the job records no extra metrics. configID must
// be in range, as Measurement checks.
func (j *Job) Extra(configID int) map[string]float64 {
	if len(j.extraNames) == 0 {
		return nil
	}
	out := make(map[string]float64, len(j.extraNames))
	for k, name := range j.extraNames {
		out[name] = j.extraCols[k][configID]
	}
	return out
}

// MeanCost returns the average cost of running the job across all
// configurations — the m̃ used to size the optimization budget
// B = N·m̃·b (paper §5.2).
func (j *Job) MeanCost() float64 {
	sum := 0.0
	for _, m := range j.measurements {
		sum += m.Cost
	}
	return sum / float64(len(j.measurements))
}

// Feasible reports whether the configuration meets the runtime constraint.
func (j *Job) Feasible(configID int, maxRuntimeSeconds float64) (bool, error) {
	m, err := j.Measurement(configID)
	if err != nil {
		return false, err
	}
	return m.RuntimeSeconds <= maxRuntimeSeconds && !m.TimedOut, nil
}

// Optimum returns the cheapest configuration that satisfies the runtime
// constraint.
func (j *Job) Optimum(maxRuntimeSeconds float64) (Measurement, error) {
	best := Measurement{}
	found := false
	for _, m := range j.measurements {
		if m.TimedOut || m.RuntimeSeconds > maxRuntimeSeconds {
			continue
		}
		if !found || m.Cost < best.Cost {
			best = m
			found = true
		}
	}
	if !found {
		return Measurement{}, ErrNoFeasibleConfig
	}
	return best, nil
}

// FeasibleFraction returns the fraction of configurations that satisfy the
// runtime constraint.
func (j *Job) FeasibleFraction(maxRuntimeSeconds float64) float64 {
	count := 0
	for _, m := range j.measurements {
		if !m.TimedOut && m.RuntimeSeconds <= maxRuntimeSeconds {
			count++
		}
	}
	return float64(count) / float64(len(j.measurements))
}

// RuntimeForFeasibleFraction returns the runtime constraint Tmax such that
// approximately the given fraction of configurations satisfies it. The paper
// sets the constraint of every job "in such a way that it is satisfied by
// roughly half of the possible configurations" (§5.2).
func (j *Job) RuntimeForFeasibleFraction(fraction float64) (float64, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("dataset: feasible fraction %v outside (0,1]", fraction)
	}
	runtimes := make([]float64, 0, len(j.measurements))
	for _, m := range j.measurements {
		if m.TimedOut {
			continue
		}
		runtimes = append(runtimes, m.RuntimeSeconds)
	}
	if len(runtimes) == 0 {
		return 0, ErrNoFeasibleConfig
	}
	sort.Float64s(runtimes)
	idx := int(math.Ceil(fraction*float64(len(j.measurements)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(runtimes) {
		idx = len(runtimes) - 1
	}
	return runtimes[idx], nil
}

// NormalizedCosts returns, for every configuration, the cost normalized by
// the cost of the optimum under the given runtime constraint, sorted in
// increasing order. This is the series plotted in Figure 1a.
func (j *Job) NormalizedCosts(maxRuntimeSeconds float64) ([]float64, error) {
	opt, err := j.Optimum(maxRuntimeSeconds)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(j.measurements))
	for _, m := range j.measurements {
		out = append(out, m.Cost/opt.Cost)
	}
	sort.Float64s(out)
	return out, nil
}

// CountWithinFactor returns the number of configurations whose cost is within
// the given multiplicative factor of the optimum and that satisfy the runtime
// constraint. Figure 1a's discussion reports that only 5–20 configurations
// (1.5%–5% of the space) are within a factor of two of the optimum.
func (j *Job) CountWithinFactor(maxRuntimeSeconds, factor float64) (int, error) {
	if factor < 1 {
		return 0, fmt.Errorf("dataset: factor %v below 1", factor)
	}
	opt, err := j.Optimum(maxRuntimeSeconds)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, m := range j.measurements {
		if m.TimedOut || m.RuntimeSeconds > maxRuntimeSeconds {
			continue
		}
		if m.Cost <= factor*opt.Cost {
			count++
		}
	}
	return count, nil
}
