package acquisition

import (
	"math"

	"repro/internal/numeric"
)

// Transcendental-free upper bounds on the two factors of EIc.
//
// The planner's NextStep sweep needs only the argmax of EIc over a
// speculated state's candidates, so it bounds every candidate with the
// functions below (a handful of multiplies and one division each) and pays
// ExpectedImprovement's erfc and exp only for the few candidates whose bound
// reaches the best exact value. The sweep prunes on "bound < best", so what
// these functions owe it is:
//
//   - bound ≥ the value the exact function COMPUTES (not merely the real
//     number it approximates) whenever that value is a number, and
//   - a NaN bound whenever the exact value is NaN (NaN < x is false, so a NaN
//     bound never prunes and the exact path reports whatever it reports).
//
// Each bound is mathematically strict except where noted below, and the
// strict ones are inflated by boundMargin, which exceeds the worst rounding
// error of either side by more than five orders of magnitude on the whole
// range where the exact values are non-zero (|z| ≲ 38.6; beyond it the exact
// erfc and exp underflow to zero while 1/Σ x^k/k! is still ~1e-15).
const boundMargin = 1 + 1e-9

// invSqrt2Pi is φ(0) = 1/√(2π).
const invSqrt2Pi = 0.3989422804014327

// expNegUpperBound returns 1/Σ_{k≤6} x^k/k! ≥ e^(−x) for x ≥ 0: the
// truncated series of e^x has only positive terms, so it undershoots e^x.
// x = +Inf (or an overflowing power) yields 0 = e^(−Inf); NaN propagates.
func expNegUpperBound(x float64) float64 {
	return 1 / (1 + x*(1+x*(1.0/2+x*(1.0/6+x*(1.0/24+x*(1.0/120+x*(1.0/720)))))))
}

// ExpectedImprovementUpperBound returns an upper bound on
// ExpectedImprovement(pred, best) without evaluating erfc or exp. With
// EI = σ·h(z), h(z) = z·Φ(z) + φ(z) and z = (best − µ)/σ:
//
//	h(−t) ≤ φ(t)/(1+t²)          for t ≥ 0   (Mills-ratio bound Q(t) ≥ φ(t)·t/(1+t²))
//	h(z)  = z + h(−z)             for z > 0   (reflection)
//	φ(t)  ≤ φ(0)/Σ_{k≤6} (t²/2)^k/k!
//
// σ = 0 takes the exact degenerate branch (no transcendental there); a
// negative or NaN σ, or a NaN/infinite z, returns NaN.
func ExpectedImprovementUpperBound(pred numeric.Gaussian, best float64) float64 {
	s := pred.StdDev
	if !(s > 0) {
		if s == 0 {
			return ExpectedImprovement(pred, best)
		}
		return math.NaN()
	}
	d := best - pred.Mean
	z := d / s
	tail := s * (invSqrt2Pi * expNegUpperBound(0.5*z*z)) / (1 + z*z)
	switch {
	case z-z != 0: // NaN or ±Inf
		return math.NaN()
	case z > 0:
		return (d + tail) * boundMargin
	default:
		return tail * boundMargin
	}
}

// ProbLEUpperBound returns an upper bound on pred.ProbLE(threshold) — the
// constraint probability factor of EIc — without evaluating erfc:
//
//	Φ(w) ≤ ½·e^(−w²/2) ≤ ½/Σ_{k≤6} (w²/2)^k/k!   for w ≤ 0
//	Φ(w) ≤ 1                                       for w > 0
//
// σ = 0 takes the exact step-function branch; a NaN w returns NaN.
func ProbLEUpperBound(pred numeric.Gaussian, threshold float64) float64 {
	if pred.StdDev == 0 {
		return pred.ProbLE(threshold)
	}
	w := (threshold - pred.Mean) / pred.StdDev
	switch {
	case w > 0:
		return 1
	case w <= 0:
		return 0.5 * expNegUpperBound(0.5*w*w) * boundMargin
	default:
		return math.NaN()
	}
}
