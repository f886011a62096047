// Package stat provides the summary statistics used by the experiment
// pipeline: means, standard deviations, percentiles and threshold fractions
// over metric samples such as the cost-normalized-to-optimal (CNO) and the
// number of explorations (NEX).
package stat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmptySample is returned when a statistic is requested over no data.
var ErrEmptySample = errors.New("stat: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	mean, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest value in xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value in xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks, matching the convention used by
// numpy's default percentile and by the paper's reported 50th/90th/95th
// percentile figures.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	if math.IsNaN(p) || p < 0 || p > 100 {
		return 0, fmt.Errorf("stat: percentile %v outside [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Summary bundles the statistics the evaluation section reports for a metric.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P90    float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmptySample
	}
	mean, err := Mean(xs)
	if err != nil {
		return Summary{}, err
	}
	std, err := StdDev(xs)
	if err != nil {
		return Summary{}, err
	}
	minV, err := Min(xs)
	if err != nil {
		return Summary{}, err
	}
	maxV, err := Max(xs)
	if err != nil {
		return Summary{}, err
	}
	p50, err := Percentile(xs, 50)
	if err != nil {
		return Summary{}, err
	}
	p90, err := Percentile(xs, 90)
	if err != nil {
		return Summary{}, err
	}
	p95, err := Percentile(xs, 95)
	if err != nil {
		return Summary{}, err
	}
	p99, err := Percentile(xs, 99)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Count:  len(xs),
		Mean:   mean,
		StdDev: std,
		Min:    minV,
		P50:    p50,
		P90:    p90,
		P95:    p95,
		P99:    p99,
		Max:    maxV,
	}, nil
}

// FractionAtMost returns the fraction of xs that is <= threshold.
func FractionAtMost(xs []float64, threshold float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	count := 0
	for _, x := range xs {
		if x <= threshold {
			count++
		}
	}
	return float64(count) / float64(len(xs)), nil
}
