// Package gp implements Gaussian-Process regression with a squared-
// exponential kernel. The paper's prototype uses a bagging ensemble of
// regression trees as its cost model, but notes (§3, footnote 1) that Lynceus
// "can also operate using Gaussian Processes, as done by other BO
// approaches"; this package provides that alternative model. CherryPick
// itself uses a GP prior, so the BO baseline can also be run with it.
package gp

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric"
)

// ErrNotTrained is returned when Predict is called before Fit.
var ErrNotTrained = errors.New("gp: model is not trained")

// GP is a Gaussian-Process regressor with the squared-exponential kernel
// k(a,b) = s²·exp(-‖a-b‖²/(2l²)). Every hyper-parameter is derived from the
// training data at each Fit:
//   - inputs are rescaled to [0,1] per dimension using the ranges observed in
//     the training set, which makes a single length scale meaningful for
//     spaces whose dimensions have very different magnitudes (e.g. learning
//     rates vs cluster sizes);
//   - the length scale l is the median pairwise distance of the rescaled
//     training inputs (the median heuristic);
//   - the signal variance s² is the variance of the training targets;
//   - the observation noise added to the kernel diagonal is 1e-6·s².
//
// It is not safe for concurrent mutation; Predict may be called concurrently
// once Fit has returned.
type GP struct {
	trained bool
	inputs  [][]float64 // normalized training inputs
	alpha   []float64   // K⁻¹·(y - mean)
	chol    [][]float64 // lower Cholesky factor of K + σ²I
	yMean   float64
	lo, hi  []float64 // per-dimension input ranges (for normalization)

	lengthScale    float64
	signalVariance float64
	noiseVariance  float64
}

// New creates an untrained GP.
func New() *GP { return &GP{} }

// Fit trains the GP on the given samples, replacing previous state.
func (g *GP) Fit(features [][]float64, targets []float64) error {
	if len(features) == 0 {
		return errors.New("gp: no training data")
	}
	if len(features) != len(targets) {
		return fmt.Errorf("gp: %d feature rows but %d targets", len(features), len(targets))
	}
	dims := len(features[0])
	if dims == 0 {
		return errors.New("gp: feature rows are empty")
	}
	for i, row := range features {
		if len(row) != dims {
			return fmt.Errorf("gp: feature row %d has %d columns, want %d", i, len(row), dims)
		}
	}
	for i, y := range targets {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("gp: target %d is not finite: %v", i, y)
		}
	}

	g.fitRanges(features, dims)
	inputs := make([][]float64, len(features))
	for i, row := range features {
		inputs[i] = g.normalize(row)
	}

	// Centre the targets; the GP models the residual around the mean.
	mean := 0.0
	for _, y := range targets {
		mean += y
	}
	mean /= float64(len(targets))
	centred := make([]float64, len(targets))
	variance := 0.0
	for i, y := range targets {
		centred[i] = y - mean
		variance += centred[i] * centred[i]
	}
	variance /= float64(len(targets))

	g.lengthScale = medianDistance(inputs)
	if g.lengthScale <= 0 {
		g.lengthScale = 1
	}
	g.signalVariance = variance
	if g.signalVariance <= 0 {
		g.signalVariance = 1e-12
	}
	g.noiseVariance = 1e-6 * g.signalVariance
	if g.noiseVariance <= 0 {
		g.noiseVariance = 1e-12
	}

	n := len(inputs)
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = g.kernel(inputs[i], inputs[j])
			if i == j {
				k[i][j] += g.noiseVariance
			}
		}
	}
	chol, err := cholesky(k)
	if err != nil {
		return fmt.Errorf("gp: factorizing kernel matrix: %w", err)
	}
	alpha, err := cholSolve(chol, centred)
	if err != nil {
		return fmt.Errorf("gp: solving for alpha: %w", err)
	}

	g.inputs = inputs
	g.alpha = alpha
	g.chol = chol
	g.yMean = mean
	g.trained = true
	return nil
}

// Trained reports whether Fit has been called successfully.
func (g *GP) Trained() bool { return g.trained }

// Predict returns the posterior predictive distribution at x.
func (g *GP) Predict(x []float64) (numeric.Gaussian, error) {
	if !g.trained {
		return numeric.Gaussian{}, ErrNotTrained
	}
	if len(x) != len(g.lo) {
		return numeric.Gaussian{}, fmt.Errorf("gp: feature vector has %d columns, want %d", len(x), len(g.lo))
	}
	z := g.normalize(x)

	n := len(g.inputs)
	kStar := make([]float64, n)
	for i, xi := range g.inputs {
		kStar[i] = g.kernel(z, xi)
	}
	mean := g.yMean
	for i := range kStar {
		mean += kStar[i] * g.alpha[i]
	}

	// Predictive variance: k(x,x) - vᵀv with v = L⁻¹·k*.
	v := make([]float64, n)
	if err := forwardSolveInto(g.chol, kStar, v); err != nil {
		return numeric.Gaussian{}, err
	}
	variance := g.kernel(z, z)
	for i := range v {
		variance -= v[i] * v[i]
	}
	if variance < 0 {
		variance = 0
	}
	return numeric.Gaussian{Mean: mean, StdDev: math.Sqrt(variance)}, nil
}

// PredictBatch predicts every point of a column-major feature matrix
// (cols[d][i] is dimension d of point i), writing the posterior distribution
// of point i to out[i]. The Cholesky factorization computed by Fit is reused
// across every query point, and the per-point buffers (normalized input, k*,
// and the triangular solve) are allocated once per call instead of once per
// point. The arithmetic per point is exactly Predict's, so batched and scalar
// predictions are bitwise identical.
func (g *GP) PredictBatch(cols [][]float64, out []numeric.Gaussian) error {
	if !g.trained {
		return ErrNotTrained
	}
	if len(cols) != len(g.lo) {
		return fmt.Errorf("gp: feature matrix has %d columns, want %d", len(cols), len(g.lo))
	}
	m := len(out)
	for d, col := range cols {
		if len(col) != m {
			return fmt.Errorf("gp: feature column %d has %d points, want %d", d, len(col), m)
		}
	}
	n := len(g.inputs)
	x := make([]float64, len(cols))
	z := make([]float64, len(cols))
	kStar := make([]float64, n)
	v := make([]float64, n)
	for i := 0; i < m; i++ {
		for d, col := range cols {
			x[d] = col[i]
		}
		g.normalizeInto(x, z)
		for j, xj := range g.inputs {
			kStar[j] = g.kernel(z, xj)
		}
		mean := g.yMean
		for j := range kStar {
			mean += kStar[j] * g.alpha[j]
		}
		if err := forwardSolveInto(g.chol, kStar, v); err != nil {
			return err
		}
		variance := g.kernel(z, z)
		for j := range v {
			variance -= v[j] * v[j]
		}
		if variance < 0 {
			variance = 0
		}
		out[i] = numeric.Gaussian{Mean: mean, StdDev: math.Sqrt(variance)}
	}
	return nil
}

// kernel is the squared-exponential covariance between two normalized inputs.
func (g *GP) kernel(a, b []float64) float64 {
	dist := 0.0
	for i := range a {
		d := a[i] - b[i]
		dist += d * d
	}
	return g.signalVariance * math.Exp(-dist/(2*g.lengthScale*g.lengthScale))
}

// fitRanges records per-dimension input ranges for normalization.
func (g *GP) fitRanges(features [][]float64, dims int) {
	g.lo = make([]float64, dims)
	g.hi = make([]float64, dims)
	for d := 0; d < dims; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range features {
			if row[d] < lo {
				lo = row[d]
			}
			if row[d] > hi {
				hi = row[d]
			}
		}
		g.lo[d], g.hi[d] = lo, hi
	}
}

// normalize rescales an input to [0,1] per dimension.
func (g *GP) normalize(x []float64) []float64 {
	out := make([]float64, len(x))
	g.normalizeInto(x, out)
	return out
}

// normalizeInto is normalize writing into a caller-provided buffer.
func (g *GP) normalizeInto(x, out []float64) {
	for d := range x {
		span := g.hi[d] - g.lo[d]
		if span <= 0 {
			out[d] = 0
			continue
		}
		out[d] = (x[d] - g.lo[d]) / span
	}
}

// medianDistance returns the median pairwise Euclidean distance of the
// inputs, a standard heuristic for the kernel length scale.
func medianDistance(inputs [][]float64) float64 {
	n := len(inputs)
	if n < 2 {
		return 1
	}
	distances := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 0.0
			for k := range inputs[i] {
				diff := inputs[i][k] - inputs[j][k]
				d += diff * diff
			}
			distances = append(distances, math.Sqrt(d))
		}
	}
	return median(distances)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	// The distance count grows quadratically with the training-set size, so
	// an O(n log n) sort matters once speculated training sets get large.
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// cholesky returns the lower-triangular factor L with L·Lᵀ = m. It adds
// progressively larger jitter to the diagonal if the matrix is not positive
// definite due to numerical issues.
func cholesky(m [][]float64) ([][]float64, error) {
	n := len(m)
	jitter := 0.0
	base := 0.0
	for i := 0; i < n; i++ {
		base += m[i][i]
	}
	base /= float64(n)

	for attempt := 0; attempt < 6; attempt++ {
		l := make([][]float64, n)
		for i := range l {
			l[i] = make([]float64, n)
		}
		ok := true
		for i := 0; i < n && ok; i++ {
			for j := 0; j <= i; j++ {
				sum := m[i][j]
				if i == j {
					sum += jitter
				}
				for k := 0; k < j; k++ {
					sum -= l[i][k] * l[j][k]
				}
				if i == j {
					if sum <= 0 {
						ok = false
						break
					}
					l[i][j] = math.Sqrt(sum)
				} else {
					l[i][j] = sum / l[j][j]
				}
			}
		}
		if ok {
			return l, nil
		}
		if jitter == 0 {
			jitter = 1e-10 * base
			if jitter == 0 {
				jitter = 1e-12
			}
		} else {
			jitter *= 100
		}
	}
	return nil, errors.New("gp: kernel matrix is not positive definite even with jitter")
}

// forwardSolve solves L·v = b for lower-triangular L.
func forwardSolve(l [][]float64, b []float64) ([]float64, error) {
	v := make([]float64, len(l))
	if err := forwardSolveInto(l, b, v); err != nil {
		return nil, err
	}
	return v, nil
}

// forwardSolveInto solves L·v = b into a caller-provided buffer, so batched
// prediction can reuse one buffer across every query point.
func forwardSolveInto(l [][]float64, b, v []float64) error {
	n := len(l)
	if len(b) != n {
		return fmt.Errorf("gp: solve dimension mismatch (%d vs %d)", len(b), n)
	}
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * v[k]
		}
		if l[i][i] == 0 {
			return errors.New("gp: singular triangular factor")
		}
		v[i] = sum / l[i][i]
	}
	return nil
}

// backSolve solves Lᵀ·x = b for lower-triangular L.
func backSolve(l [][]float64, b []float64) ([]float64, error) {
	n := len(l)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		if l[i][i] == 0 {
			return nil, errors.New("gp: singular triangular factor")
		}
		x[i] = sum / l[i][i]
	}
	return x, nil
}

// cholSolve solves (L·Lᵀ)·x = b.
func cholSolve(l [][]float64, b []float64) ([]float64, error) {
	v, err := forwardSolve(l, b)
	if err != nil {
		return nil, err
	}
	return backSolve(l, v)
}
