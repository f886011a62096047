package numeric

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// maxGHOrder bounds the quadrature order accepted by GaussHermite. Orders
// beyond this are numerically pointless for Lynceus (the paper uses a handful
// of nodes) and would slow down the Newton iteration for no benefit.
const maxGHOrder = 64

// GHNode is a single Gauss-Hermite quadrature node: the abscissa X and its
// weight W for integrands of the form f(x)·exp(-x²).
type GHNode struct {
	X float64
	W float64
}

// WeightedValue is a speculated outcome produced by discretizing a predictive
// distribution: a concrete Value (e.g. a cost) and the Weight that captures
// its likelihood. Weights of a discretization sum to 1.
type WeightedValue struct {
	Value  float64
	Weight float64
}

// ghCache memoizes node computations per order; quadrature nodes are
// requested once per speculated step, always with the same small orders.
var ghCache sync.Map // map[int][]GHNode

// GaussHermite returns the n nodes and weights of the Gauss-Hermite
// quadrature rule, i.e. the rule that approximates
//
//	∫ f(x)·exp(-x²) dx  ≈  Σ w_i · f(x_i).
//
// Nodes are returned in increasing abscissa order. The computation uses the
// standard Newton iteration on the physicists' Hermite polynomials
// (Numerical Recipes' gauher) and is exact for polynomials up to degree 2n-1.
// The returned slice is the cache's own, shared by every caller of order n:
// callers must not modify it.
func GaussHermite(n int) ([]GHNode, error) {
	if n <= 0 {
		return nil, fmt.Errorf("numeric: gauss-hermite order must be positive, got %d", n)
	}
	if n > maxGHOrder {
		return nil, fmt.Errorf("numeric: gauss-hermite order %d exceeds maximum %d", n, maxGHOrder)
	}
	if cached, ok := ghCache.Load(n); ok {
		nodes, _ := cached.([]GHNode)
		return nodes, nil
	}

	nodes, err := computeGaussHermite(n)
	if err != nil {
		return nil, err
	}
	cached, _ := ghCache.LoadOrStore(n, nodes)
	nodes, _ = cached.([]GHNode)
	return nodes, nil
}

// computeGaussHermite performs the actual node/weight computation.
func computeGaussHermite(n int) ([]GHNode, error) {
	const (
		eps     = 3.0e-14
		maxIter = 64
	)
	piQuarter := math.Pow(math.Pi, -0.25)

	x := make([]float64, n)
	w := make([]float64, n)
	m := (n + 1) / 2

	var z float64
	for i := 0; i < m; i++ {
		// Initial guesses for the roots, from largest to smallest.
		switch i {
		case 0:
			z = math.Sqrt(float64(2*n+1)) - 1.85575*math.Pow(float64(2*n+1), -1.0/6.0)
		case 1:
			z -= 1.14 * math.Pow(float64(n), 0.426) / z
		case 2:
			z = 1.86*z - 0.86*x[0]
		case 3:
			z = 1.91*z - 0.91*x[1]
		default:
			z = 2*z - x[i-2]
		}

		var pp float64
		converged := false
		for iter := 0; iter < maxIter; iter++ {
			p1 := piQuarter
			p2 := 0.0
			for j := 0; j < n; j++ {
				p3 := p2
				p2 = p1
				fj := float64(j)
				p1 = z*math.Sqrt(2/(fj+1))*p2 - math.Sqrt(fj/(fj+1))*p3
			}
			pp = math.Sqrt(2*float64(n)) * p2
			z1 := z
			z = z1 - p1/pp
			if math.Abs(z-z1) <= eps {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("numeric: gauss-hermite Newton iteration did not converge for order %d", n)
		}

		x[i] = z
		x[n-1-i] = -z
		w[i] = 2 / (pp * pp)
		w[n-1-i] = w[i]
	}

	nodes := make([]GHNode, n)
	for i := 0; i < n; i++ {
		// gauher produces roots in decreasing order in the first half;
		// emit them sorted in increasing abscissa order.
		nodes[i] = GHNode{X: x[n-1-i], W: w[n-1-i]}
	}
	return nodes, nil
}

// AppendDiscretizedGaussian approximates the Gaussian distribution g by n
// weighted values using Gauss-Hermite quadrature and appends them to dst:
//
//	value_i  = mean + sqrt(2)·std·x_i
//	weight_i = w_i / sqrt(pi)
//
// The weights sum to 1 (up to floating point error). This is the
// discretization Lynceus applies to the cost distribution predicted by its
// black-box model when it speculates about exploration-path outcomes
// (paper §4.2, approximation 3). A degenerate Gaussian (StdDev == 0) yields a
// single value with weight 1. The planner discretizes every predicted
// Gaussian of every speculated step into recycled scratch, so a dst with
// spare capacity is filled without allocating.
func AppendDiscretizedGaussian(dst []WeightedValue, g Gaussian, n int) ([]WeightedValue, error) {
	if g.StdDev < 0 {
		return dst, fmt.Errorf("%w: %v", ErrInvalidStdDev, g.StdDev)
	}
	if g.StdDev == 0 {
		return append(dst, WeightedValue{Value: g.Mean, Weight: 1}), nil
	}
	nodes, err := GaussHermite(n)
	if err != nil {
		return dst, err
	}
	invSqrtPi := 1 / math.Sqrt(math.Pi)
	for _, node := range nodes {
		dst = append(dst, WeightedValue{
			Value:  g.Mean + math.Sqrt2*g.StdDev*node.X,
			Weight: node.W * invSqrtPi,
		})
	}
	return dst, nil
}

// AppendCartesianWeighted appends to dst the Cartesian product of independent
// per-metric discretizations: one combination per choice of a value from
// every dimension, the last dimension varying fastest, each carrying one
// value per dimension and the weight 1·w₀·w₁·… multiplied in dimension order.
// It is the joint speculated outcome of the multi-constraint extension of
// Lynceus (paper §4.4) — over the cost alone, the cost marginal itself. The
// combinations' Values are consecutive windows of vals, which is extended
// and returned for reuse, so with spare capacity in dst and vals the product
// allocates nothing.
func AppendCartesianWeighted(dst []WeightedVector, vals []float64, dims [][]WeightedValue) ([]WeightedVector, []float64, error) {
	if len(dims) == 0 {
		return dst, vals, fmt.Errorf("numeric: cartesian product requires at least one dimension")
	}
	total := 1
	for i, d := range dims {
		if len(d) == 0 {
			return dst, vals, fmt.Errorf("numeric: cartesian dimension %d is empty", i)
		}
		total *= len(d)
	}
	n := len(dims)
	dst = slices.Grow(dst, total)
	vals = slices.Grow(vals, total*n)
	for c := 0; c < total; c++ {
		start := len(vals)
		vals = vals[:start+n]
		row := vals[start : start+n : start+n]
		weight := 1.0
		stride := total
		for d, dim := range dims {
			stride /= len(dim)
			o := dim[c/stride%len(dim)]
			row[d] = o.Value
			weight *= o.Weight
		}
		dst = append(dst, WeightedVector{Values: row, Weight: weight})
	}
	return dst, vals, nil
}

// WeightedVector is a joint speculated outcome over several metrics, used by
// the multi-constraint extension: Values[i] is the speculated value of the
// i-th metric, and Weight is the joint likelihood of the combination.
type WeightedVector struct {
	Values []float64
	Weight float64
}
