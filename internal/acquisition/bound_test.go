package acquisition

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

// checkEIcBound is the property the planner's bound-pruned NextStep sweep
// rests on, for one candidate: cost prediction N(mean, std²) scored against
// incumbent best with runtime-constraint threshold thr and one extra
// constraint N(xMean, xStd²) ≤ xMax. It composes the factor bounds exactly as
// the planner does (same multiplication order as Constrained, early exit on a
// zero EI bound) and returns a description of the violation, or "".
//
//   - exact EIc is a number  ⇒ bound ≥ exact, or bound is NaN;
//   - exact EIc is NaN, or Constrained rejects a NaN probability ⇒ either the
//     bound is NaN (never pruned) or the exact EI was computed as NaN, which
//     the argmax can never select whether it is pruned or not — but then no
//     error may be lost: a case where Constrained errors must have a NaN bound.
func checkEIcBound(mean, std, best, thr, xMean, xStd, xMax float64) string {
	cost := numeric.Gaussian{Mean: mean, StdDev: std}
	extra := numeric.Gaussian{Mean: xMean, StdDev: xStd}

	bound := ExpectedImprovementUpperBound(cost, best)
	if bound != 0 {
		bound *= ProbLEUpperBound(cost, thr)
		bound *= ProbLEUpperBound(extra, xMax)
	}

	ei := ExpectedImprovement(cost, best)
	if eiBound := ExpectedImprovementUpperBound(cost, best); eiBound < ei {
		return "EI bound below exact EI"
	}
	if ei == 0 {
		// The planner's eic returns 0 here without reading the constraints.
		if bound < 0 {
			return "negative bound for a zero EIc"
		}
		return ""
	}
	pRuntime := cost.ProbLE(thr)
	pExtra := extra.ProbLE(xMax)
	if b := ProbLEUpperBound(cost, thr); b < pRuntime {
		return "runtime-probability bound below exact"
	}
	if b := ProbLEUpperBound(extra, xMax); b < pExtra {
		return "extra-probability bound below exact"
	}
	exact, err := Constrained(ei, pRuntime, pExtra)
	if err != nil {
		if !math.IsNaN(bound) {
			return "exact EIc is rejected (" + err.Error() + ") but the bound could prune it"
		}
		return ""
	}
	if bound < exact {
		return "EIc bound below exact EIc"
	}
	return ""
}

// boundGrid is the z/w grid of the property test: dense near 0, where both
// inequalities are tight and only the rounding margin separates bound from
// exact, through the range where erfc/exp underflow (|z| ≈ 38.6) to ±40.
func boundGrid() []float64 {
	grid := []float64{0, 1e-300, 1e-16, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 15, 20, 26, 30, 35, 37, 37.5, 38, 38.4, 38.5, 38.6, 39, 40}
	for i := 0; i <= 160; i++ {
		grid = append(grid, float64(i)*0.25)
	}
	out := make([]float64, 0, 2*len(grid))
	for _, v := range grid {
		out = append(out, v, -v)
	}
	return out
}

func TestEIcUpperBoundDominatesExact(t *testing.T) {
	grid := boundGrid()
	sigmas := []float64{0, 1e-300, 1e-9, 1, 1e9}
	checked := 0
	for _, sigma := range sigmas {
		for _, best := range []float64{0, 1, -3.5, 1e6} {
			for _, z := range grid {
				for _, w := range grid {
					// mean and threshold placed so that (best-mean)/σ ≈ z and
					// (thr-mean)/σ ≈ w; with σ = 0 they are plain offsets.
					scale := sigma
					if scale == 0 {
						scale = 1
					}
					mean := best - z*scale
					thr := mean + w*scale
					// The extra constraint reuses the grid at unit scale.
					if msg := checkEIcBound(mean, sigma, best, thr, 0, 1, w); msg != "" {
						t.Fatalf("σ=%v best=%v z=%v w=%v: %s", sigma, best, z, w, msg)
					}
					checked++
				}
			}
		}
	}
	if checked < 1_000_000 {
		t.Errorf("grid checked only %d points", checked)
	}
}

func TestEIcUpperBoundIsTightWhereItPrunes(t *testing.T) {
	// The bound must be worth computing: close to the exact EI around the
	// incumbent, and vanishing quickly above it.
	for _, z := range []float64{-0.5, 0, 0.5, 2} {
		pred := numeric.Gaussian{Mean: -z, StdDev: 1}
		exact := ExpectedImprovement(pred, 0)
		bound := ExpectedImprovementUpperBound(pred, 0)
		if bound > 1.6*exact {
			t.Errorf("z=%v: EI bound %v is more than 1.6x the exact %v", z, bound, exact)
		}
	}
	if b := ExpectedImprovementUpperBound(numeric.Gaussian{Mean: 6, StdDev: 1}, 0); b > 1e-5 {
		t.Errorf("EI bound six σ above the incumbent = %v, want < 1e-5", b)
	}
	if b := ProbLEUpperBound(numeric.Gaussian{Mean: 6, StdDev: 1}, 0); b > 1e-3 {
		t.Errorf("probability bound six σ above the threshold = %v, want < 1e-3", b)
	}
}

func TestEIcUpperBoundNonFiniteInputsNeverPrune(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	special := []float64{nan, inf, -inf, 0, 1, -1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, mean := range special {
		for _, std := range special {
			for _, best := range special {
				for _, thr := range special {
					if msg := checkEIcBound(mean, std, best, thr, mean, std, thr); msg != "" {
						t.Fatalf("mean=%v std=%v best=%v thr=%v: %s", mean, std, best, thr, msg)
					}
					// A NaN input must surface as a NaN bound, not as a small
					// number that could prune (σ = 0 is the exact degenerate
					// branch on both sides, which has no NaN results).
					if std != 0 && (math.IsNaN(mean) || math.IsNaN(std) || math.IsNaN(best)) {
						pred := numeric.Gaussian{Mean: mean, StdDev: std}
						if b := ExpectedImprovementUpperBound(pred, best); !math.IsNaN(b) {
							t.Fatalf("EI bound(mean=%v std=%v best=%v) = %v, want NaN", mean, std, best, b)
						}
					}
					if std != 0 && (math.IsNaN(mean) || math.IsNaN(std) || math.IsNaN(thr)) {
						pred := numeric.Gaussian{Mean: mean, StdDev: std}
						if b := ProbLEUpperBound(pred, thr); !math.IsNaN(b) {
							t.Fatalf("probability bound(mean=%v std=%v thr=%v) = %v, want NaN", mean, std, thr, b)
						}
					}
				}
			}
		}
	}
}

// FuzzEIcUpperBound searches for a candidate whose bound falls below its
// exact EIc (see checkEIcBound), seeded from the property tests' grid
// corners: the tight points z, w = 0, the underflow edge, degenerate and
// extreme σ, and non-finite inputs.
func FuzzEIcUpperBound(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	seeds := [][7]float64{
		{0, 1, 0, 0, 0, 1, 0},
		{1, 1, 0, 1, 0, 1, -1e-12},
		{-1, 1, 0, -1, 2, 1e-9, 2},
		{38.5, 1, 0, 0, 38.5, 1, 0},
		{-38.5, 1, 0, 30, -38.5, 1, 0},
		{5, 0, 8, 5, 5, 0, 5},
		{5, 1e-300, 5, 5, 5, 1e-300, 5},
		{1e9, 1e9, 0, 1e9, 0, 1e9, 1},
		{0.4, 0.13, 0.37, 0.52, 0.9, 0.05, 0.95},
		{nan, 1, 0, 0, 0, 1, 0},
		{0, 1, 0, 0, nan, 1, 0},
		{inf, 1, 0, 0, 0, inf, 0},
		{0, -1, 1, 0, 0, -1, 0},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
	}
	f.Fuzz(func(t *testing.T, mean, std, best, thr, xMean, xStd, xMax float64) {
		if msg := checkEIcBound(mean, std, best, thr, xMean, xStd, xMax); msg != "" {
			t.Fatalf("mean=%v std=%v best=%v thr=%v xMean=%v xStd=%v xMax=%v: %s", mean, std, best, thr, xMean, xStd, xMax, msg)
		}
	})
}
