package main

import (
	"math"
	"sort"
	"time"
)

// sample collects observations of one quantity.
type sample []float64

func (s *sample) add(v float64)          { *s = append(*s, v) }
func (s *sample) addDur(d time.Duration) { *s = append(*s, float64(d)) }
func (s sample) ms() sample              { return s.in(time.Millisecond) }
func (s sample) us() sample              { return s.in(time.Microsecond) }
func (s sample) seconds() sample         { return s.in(time.Second) }

// in converts a sample of nanoseconds to the given unit.
func (s sample) in(unit time.Duration) sample {
	out := make(sample, len(s))
	for i, v := range s {
		out[i] = v / float64(unit)
	}
	return out
}

// quantile returns the q-quantile of the sample by linear interpolation
// between order statistics, and 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s sample) max() float64 {
	out := 0.0
	for i, v := range s {
		if i == 0 || v > out {
			out = v
		}
	}
	return out
}

// value is one reported metric: the number, and how many observations back it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics maps metric names to their reported values for one run.
type metrics map[string]value

func (m metrics) set(name string, v float64, n int) {
	m[name] = value{Value: v, N: n}
}
