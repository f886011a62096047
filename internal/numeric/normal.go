// Package numeric provides the numerical building blocks used by the Lynceus
// optimizer: the standard normal distribution, Gauss-Hermite quadrature, the
// discretization of Gaussian predictive distributions into (value, weight)
// pairs (paper §4.2, approximation 3), and the SplitMix64 stream primitives
// every deterministic stream derives from.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidStdDev is returned when a Gaussian is constructed with a negative
// standard deviation.
var ErrInvalidStdDev = errors.New("numeric: standard deviation must be non-negative")

// invSqrt2Pi is 1/sqrt(2*pi), the normalization constant of the standard
// normal density.
const invSqrt2Pi = 0.3989422804014327

// NormalPDF returns the density of the standard normal distribution at z.
func NormalPDF(z float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*z*z)
}

// NormalCDF returns the cumulative distribution function of the standard
// normal distribution at z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z value such that NormalCDF(z) == p. It accepts
// p in the open interval (0, 1) and returns an error otherwise.
//
// The implementation uses the Acklam rational approximation refined by a
// single Halley step, which yields close to machine precision over the whole
// domain.
func NormalQuantile(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("numeric: quantile probability %v outside (0,1)", p)
	}

	// Coefficients of the Acklam approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x, nil
}

// Gaussian is a univariate normal distribution N(Mean, StdDev^2). The zero
// value is the degenerate distribution concentrated at 0.
type Gaussian struct {
	Mean   float64
	StdDev float64
}

// NewGaussian constructs a Gaussian and validates the standard deviation.
func NewGaussian(mean, stdDev float64) (Gaussian, error) {
	if math.IsNaN(mean) || math.IsNaN(stdDev) {
		return Gaussian{}, fmt.Errorf("numeric: NaN gaussian parameter (mean=%v, std=%v)", mean, stdDev)
	}
	if stdDev < 0 {
		return Gaussian{}, fmt.Errorf("%w: %v", ErrInvalidStdDev, stdDev)
	}
	return Gaussian{Mean: mean, StdDev: stdDev}, nil
}

// PDF returns the density of the distribution at x. For a degenerate
// distribution (StdDev == 0) it returns +Inf at the mean and 0 elsewhere.
func (g Gaussian) PDF(x float64) float64 {
	if g.StdDev == 0 {
		if x == g.Mean {
			return math.Inf(1)
		}
		return 0
	}
	z := (x - g.Mean) / g.StdDev
	return NormalPDF(z) / g.StdDev
}

// CDF returns P(X <= x) for X distributed as g. A degenerate distribution is
// handled as a step function at the mean.
func (g Gaussian) CDF(x float64) float64 {
	if g.StdDev == 0 {
		if x >= g.Mean {
			return 1
		}
		return 0
	}
	return NormalCDF((x - g.Mean) / g.StdDev)
}

// ProbLE is an alias for CDF that reads naturally at call sites of the form
// "probability that the cost is below the threshold".
func (g Gaussian) ProbLE(threshold float64) float64 {
	return g.CDF(threshold)
}

// Quantile returns the value x such that CDF(x) == p.
func (g Gaussian) Quantile(p float64) (float64, error) {
	if g.StdDev == 0 {
		if p <= 0 || p >= 1 {
			return 0, fmt.Errorf("numeric: quantile probability %v outside (0,1)", p)
		}
		return g.Mean, nil
	}
	z, err := NormalQuantile(p)
	if err != nil {
		return 0, err
	}
	return g.Mean + z*g.StdDev, nil
}
