package acquisition

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
)

// ErrNoCandidates is returned by selection helpers invoked with no candidates.
var ErrNoCandidates = errors.New("acquisition: no candidates")

// ExpectedImprovement returns the expected improvement of a candidate with
// predictive distribution pred over the current best (lowest) objective value
// best, for a minimization problem:
//
//	EI(x) = (y* − µ(x))·Φ(z) + σ(x)·φ(z),   z = (y* − µ(x))/σ(x).
//
// When the predictive standard deviation is zero, EI degenerates to
// max(0, y* − µ(x)).
func ExpectedImprovement(pred numeric.Gaussian, best float64) float64 {
	if pred.StdDev == 0 {
		if diff := best - pred.Mean; diff > 0 {
			return diff
		}
		return 0
	}
	z := (best - pred.Mean) / pred.StdDev
	ei := (best-pred.Mean)*numeric.NormalCDF(z) + pred.StdDev*numeric.NormalPDF(z)
	if ei < 0 {
		// Numerical noise can drive the closed form slightly negative deep in
		// the "no improvement" regime.
		return 0
	}
	return ei
}

// RuntimeCostThreshold returns Tmax · U(x): the maximum-runtime constraint
// expressed on the cost by exploiting C(x) = T(x)·U(x) with U(x) known
// (paper §3). unitPricePerSecond is U(x) expressed per second so that the
// threshold and the cost prediction share the same unit. Both inputs are
// fixed for a candidate, so a caller scoring it under many model states
// validates and resolves the threshold once.
func RuntimeCostThreshold(maxRuntimeSeconds, unitPricePerSecond float64) (float64, error) {
	if maxRuntimeSeconds <= 0 {
		return 0, fmt.Errorf("acquisition: non-positive runtime constraint %v", maxRuntimeSeconds)
	}
	if unitPricePerSecond <= 0 {
		return 0, fmt.Errorf("acquisition: non-positive unit price %v", unitPricePerSecond)
	}
	return maxRuntimeSeconds * unitPricePerSecond, nil
}

// ConstraintProbability returns P(C(x) ≤ Tmax · U(x)), the probability that
// the configuration meets the maximum-runtime constraint, computed on the
// cost model against RuntimeCostThreshold.
func ConstraintProbability(costPred numeric.Gaussian, maxRuntimeSeconds, unitPricePerSecond float64) (float64, error) {
	threshold, err := RuntimeCostThreshold(maxRuntimeSeconds, unitPricePerSecond)
	if err != nil {
		return 0, err
	}
	return costPred.ProbLE(threshold), nil
}

// Constrained combines an expected improvement with the probability that
// every constraint is satisfied: EIc(x) = EI(x) · Π P(m_i ≤ t_i). The
// probabilities are assumed independent, as in the paper's multi-constraint
// extension (§4.4).
func Constrained(ei float64, constraintProbs ...float64) (float64, error) {
	if ei < 0 {
		return 0, fmt.Errorf("acquisition: negative expected improvement %v", ei)
	}
	out := ei
	for i, p := range constraintProbs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return 0, fmt.Errorf("acquisition: constraint probability %d = %v outside [0,1]", i, p)
		}
		out *= p
	}
	return out, nil
}

// IncumbentFallback returns the pseudo-incumbent y* to use when no profiled
// configuration satisfies the runtime constraint yet: the cost of the most
// expensive configuration profiled so far plus three times the maximum
// predictive standard deviation over the untested configurations (paper §3,
// following [39]).
func IncumbentFallback(maxObservedCost, maxPredictiveStd float64) float64 {
	return maxObservedCost + 3*maxPredictiveStd
}

// Score is the acquisition value of one candidate configuration.
type Score struct {
	// ConfigID identifies the candidate within its space.
	ConfigID int
	// EIc is the constrained expected improvement: EI times the
	// probability that every constraint holds.
	EIc float64
}

// ArgMaxEIc returns the index (within scores) of the candidate with the
// highest EIc. Ties are broken by the lower ConfigID to keep selection
// deterministic.
func ArgMaxEIc(scores []Score) (int, error) {
	if len(scores) == 0 {
		return 0, ErrNoCandidates
	}
	best := 0
	for i := 1; i < len(scores); i++ {
		if better(scores[i].EIc, scores[i].ConfigID, scores[best].EIc, scores[best].ConfigID) {
			best = i
		}
	}
	return best, nil
}

// better reports whether candidate (value a, id aID) beats (value b, id bID).
func better(a float64, aID int, b float64, bID int) bool {
	if a != b {
		return a > b
	}
	return aID < bID
}
