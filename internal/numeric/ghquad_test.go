package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGaussHermiteRejectsInvalidOrders(t *testing.T) {
	for _, n := range []int{-3, 0, maxGHOrder + 1} {
		if _, err := GaussHermite(n); err == nil {
			t.Errorf("GaussHermite(%d) expected error, got nil", n)
		}
	}
}

func TestGaussHermiteKnownRules(t *testing.T) {
	sqrtPi := math.Sqrt(math.Pi)
	tests := []struct {
		name  string
		order int
		nodes []GHNode
	}{
		{
			name:  "order 1",
			order: 1,
			nodes: []GHNode{{X: 0, W: sqrtPi}},
		},
		{
			name:  "order 2",
			order: 2,
			nodes: []GHNode{
				{X: -math.Sqrt(0.5), W: sqrtPi / 2},
				{X: math.Sqrt(0.5), W: sqrtPi / 2},
			},
		},
		{
			name:  "order 3",
			order: 3,
			nodes: []GHNode{
				{X: -math.Sqrt(1.5), W: sqrtPi / 6},
				{X: 0, W: 2 * sqrtPi / 3},
				{X: math.Sqrt(1.5), W: sqrtPi / 6},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := GaussHermite(tt.order)
			if err != nil {
				t.Fatalf("GaussHermite(%d) error: %v", tt.order, err)
			}
			if len(got) != len(tt.nodes) {
				t.Fatalf("GaussHermite(%d) returned %d nodes, want %d", tt.order, len(got), len(tt.nodes))
			}
			for i := range got {
				if !closeTo(got[i].X, tt.nodes[i].X, 1e-10) {
					t.Errorf("node %d abscissa = %v, want %v", i, got[i].X, tt.nodes[i].X)
				}
				if !closeTo(got[i].W, tt.nodes[i].W, 1e-10) {
					t.Errorf("node %d weight = %v, want %v", i, got[i].W, tt.nodes[i].W)
				}
			}
		})
	}
}

func TestGaussHermiteWeightsSumToSqrtPi(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 10, 20, 40} {
		nodes, err := GaussHermite(n)
		if err != nil {
			t.Fatalf("GaussHermite(%d) error: %v", n, err)
		}
		sum := 0.0
		for _, node := range nodes {
			if node.W <= 0 {
				t.Errorf("order %d: non-positive weight %v", n, node.W)
			}
			sum += node.W
		}
		if !closeTo(sum, math.Sqrt(math.Pi), 1e-9) {
			t.Errorf("order %d: weights sum to %v, want sqrt(pi)=%v", n, sum, math.Sqrt(math.Pi))
		}
	}
}

func TestGaussHermiteNodesAreSortedAndSymmetric(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 16} {
		nodes, err := GaussHermite(n)
		if err != nil {
			t.Fatalf("GaussHermite(%d) error: %v", n, err)
		}
		for i := 1; i < len(nodes); i++ {
			if nodes[i].X <= nodes[i-1].X {
				t.Errorf("order %d: nodes not strictly increasing at %d", n, i)
			}
		}
		for i := range nodes {
			j := len(nodes) - 1 - i
			if !closeTo(nodes[i].X, -nodes[j].X, 1e-10) {
				t.Errorf("order %d: abscissae not symmetric (%v vs %v)", n, nodes[i].X, nodes[j].X)
			}
			if !closeTo(nodes[i].W, nodes[j].W, 1e-10) {
				t.Errorf("order %d: weights not symmetric (%v vs %v)", n, nodes[i].W, nodes[j].W)
			}
		}
	}
}

// TestGaussHermitePolynomialExactness exercises the defining property of the
// rule: an n-point rule integrates x^k·exp(-x²) exactly for k <= 2n-1.
func TestGaussHermitePolynomialExactness(t *testing.T) {
	// Exact Gaussian moments of ∫ x^k e^{-x²} dx: 0 for odd k,
	// sqrt(pi)·(k-1)!!/2^{k/2} for even k.
	exactMoment := func(k int) float64 {
		if k%2 == 1 {
			return 0
		}
		val := math.Sqrt(math.Pi)
		for i := k - 1; i >= 1; i -= 2 {
			val *= float64(i) / 2
		}
		return val
	}
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		nodes, err := GaussHermite(n)
		if err != nil {
			t.Fatalf("GaussHermite(%d) error: %v", n, err)
		}
		for k := 0; k <= 2*n-1; k++ {
			got := 0.0
			for _, node := range nodes {
				got += node.W * math.Pow(node.X, float64(k))
			}
			want := exactMoment(k)
			if !closeTo(got, want, 1e-8) {
				t.Errorf("order %d moment %d = %v, want %v", n, k, got, want)
			}
		}
	}
}

// TestGaussHermiteCacheSharesNodes pins that every caller of one order reads
// the cache's own node slice: the planner discretizes a Gaussian per
// speculated step, and a copy per call would allocate on that path.
func TestGaussHermiteCacheSharesNodes(t *testing.T) {
	first, err := GaussHermite(5)
	if err != nil {
		t.Fatalf("GaussHermite(5) error: %v", err)
	}
	second, err := GaussHermite(5)
	if err != nil {
		t.Fatalf("GaussHermite(5) error: %v", err)
	}
	if &first[0] != &second[0] {
		t.Error("two calls of one order returned different node slices")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = GaussHermite(5) }); allocs != 0 {
		t.Errorf("a cached GaussHermite call allocates %v times, want 0", allocs)
	}
}

func TestDiscretizeGaussianWeightsAndMean(t *testing.T) {
	g := Gaussian{Mean: 40, StdDev: 12}
	for _, n := range []int{1, 3, 5, 9} {
		vals, err := AppendDiscretizedGaussian(nil, g, n)
		if err != nil {
			t.Fatalf("AppendDiscretizedGaussian order %d error: %v", n, err)
		}
		if len(vals) != n {
			t.Fatalf("AppendDiscretizedGaussian order %d returned %d values", n, len(vals))
		}
		sumW, mean, second := 0.0, 0.0, 0.0
		for _, wv := range vals {
			sumW += wv.Weight
			mean += wv.Weight * wv.Value
			second += wv.Weight * wv.Value * wv.Value
		}
		if !closeTo(sumW, 1, 1e-9) {
			t.Errorf("order %d: weights sum to %v, want 1", n, sumW)
		}
		if !closeTo(mean, g.Mean, 1e-8) {
			t.Errorf("order %d: discretized mean %v, want %v", n, mean, g.Mean)
		}
		if n >= 2 {
			variance := second - mean*mean
			if !closeTo(variance, g.StdDev*g.StdDev, 1e-6) {
				t.Errorf("order %d: discretized variance %v, want %v", n, variance, g.StdDev*g.StdDev)
			}
		}
	}
}

// TestDiscretizeGaussianAppends pins the append contract: the outcomes land
// after dst's elements, which stay untouched, and a dst with room for them
// is filled without allocating.
func TestDiscretizeGaussianAppends(t *testing.T) {
	prefix := WeightedValue{Value: -1, Weight: -1}
	dst := make([]WeightedValue, 1, 8)
	dst[0] = prefix
	g := Gaussian{Mean: 3, StdDev: 2}
	got, err := AppendDiscretizedGaussian(dst, g, 5)
	if err != nil {
		t.Fatalf("AppendDiscretizedGaussian error: %v", err)
	}
	want, _ := AppendDiscretizedGaussian(nil, g, 5)
	if len(got) != 6 || got[0] != prefix || &got[0] != &dst[0] {
		t.Fatalf("appended %d outcomes after %+v in place = %v; want 5 after the untouched prefix", len(got)-1, prefix, got)
	}
	for i, o := range want {
		if got[1+i] != o {
			t.Errorf("outcome %d = %+v, want %+v", i, got[1+i], o)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = AppendDiscretizedGaussian(dst[:1], g, 5) }); allocs != 0 {
		t.Errorf("appending into spare capacity allocates %v times, want 0", allocs)
	}
}

func TestDiscretizeGaussianDegenerate(t *testing.T) {
	vals, err := AppendDiscretizedGaussian(nil, Gaussian{Mean: 7, StdDev: 0}, 5)
	if err != nil {
		t.Fatalf("AppendDiscretizedGaussian error: %v", err)
	}
	if len(vals) != 1 || vals[0].Value != 7 || vals[0].Weight != 1 {
		t.Errorf("degenerate discretization = %+v, want single (7,1)", vals)
	}
}

func TestDiscretizeGaussianRejectsNegativeStd(t *testing.T) {
	if _, err := AppendDiscretizedGaussian(nil, Gaussian{Mean: 1, StdDev: -1}, 3); err == nil {
		t.Error("expected error for negative std, got nil")
	}
	if _, err := AppendDiscretizedGaussian(nil, Gaussian{Mean: 1, StdDev: 1}, 0); err == nil {
		t.Error("expected error for order 0, got nil")
	}
}

func TestQuickDiscretizeGaussianPreservesMass(t *testing.T) {
	property := func(mean, spread float64, orderSeed uint8) bool {
		mean = math.Mod(mean, 1e5)
		std := math.Abs(math.Mod(spread, 1e4))
		order := int(orderSeed%10) + 1
		vals, err := AppendDiscretizedGaussian(nil, Gaussian{Mean: mean, StdDev: std}, order)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, wv := range vals {
			if wv.Weight < 0 {
				return false
			}
			sum += wv.Weight
		}
		return closeTo(sum, 1, 1e-8)
	}
	if err := quick.Check(property, nil); err != nil {
		t.Errorf("discretization mass not preserved: %v", err)
	}
}

func TestCartesianWeighted(t *testing.T) {
	dims := [][]WeightedValue{
		{{Value: 1, Weight: 0.25}, {Value: 2, Weight: 0.75}},
		{{Value: 10, Weight: 0.5}, {Value: 20, Weight: 0.3}, {Value: 30, Weight: 0.2}},
	}
	combos, _, err := AppendCartesianWeighted(nil, nil, dims)
	if err != nil {
		t.Fatalf("AppendCartesianWeighted error: %v", err)
	}
	if len(combos) != 6 {
		t.Fatalf("AppendCartesianWeighted returned %d combos, want 6", len(combos))
	}
	sum := 0.0
	for _, c := range combos {
		if len(c.Values) != 2 {
			t.Fatalf("combo has %d values, want 2", len(c.Values))
		}
		sum += c.Weight
	}
	if !closeTo(sum, 1, 1e-12) {
		t.Errorf("combined weights sum to %v, want 1", sum)
	}
	// The last dimension varies fastest: (2,30) is the last combination.
	if last := combos[5]; last.Values[0] != 2 || last.Values[1] != 30 || !closeTo(last.Weight, 0.75*0.2, 1e-12) {
		t.Errorf("last combo = %+v, want (2,30) weighted %v", last, 0.75*0.2)
	}
}

func TestCartesianWeightedErrors(t *testing.T) {
	if _, _, err := AppendCartesianWeighted(nil, nil, nil); err == nil {
		t.Error("expected error for empty dimension list")
	}
	if _, _, err := AppendCartesianWeighted(nil, nil, [][]WeightedValue{{}}); err == nil {
		t.Error("expected error for empty dimension")
	}
}

// referenceCartesianWeighted is the allocating product the planner's
// multi-constraint speculation used before AppendCartesianWeighted, kept
// verbatim as the bitwise reference: a mixed-radix counter with the last
// dimension fastest, weights multiplied from 1.0 in dimension order.
func referenceCartesianWeighted(dims [][]WeightedValue) []WeightedVector {
	var out []WeightedVector
	indices := make([]int, len(dims))
	for {
		values := make([]float64, len(dims))
		weight := 1.0
		for d, idx := range indices {
			values[d] = dims[d][idx].Value
			weight *= dims[d][idx].Weight
		}
		out = append(out, WeightedVector{Values: values, Weight: weight})

		d := len(dims) - 1
		for d >= 0 {
			indices[d]++
			if indices[d] < len(dims[d]) {
				break
			}
			indices[d] = 0
			d--
		}
		if d < 0 {
			return out
		}
	}
}

// TestCartesianWeightedMatchesReferenceBitwise pins the joint speculated
// outcomes bit for bit against the reference product over discretized
// Gaussians — 1 to 4 metrics, several orders, degenerate (σ = 0) marginals
// among them — appended after leftovers of an earlier product, as the
// planner's depth scratch is reused. Campaign decisions do not pin these
// bits: a relative error of 1e-6 in the constraint weights leaves every
// pinned trial sequence unchanged.
func TestCartesianWeightedMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var combos []WeightedVector
	var vals []float64
	for trial := 0; trial < 2000; trial++ {
		order := 1 + rng.Intn(7)
		dims := make([][]WeightedValue, 1+rng.Intn(4))
		for d := range dims {
			g := Gaussian{Mean: rng.NormFloat64() * 100, StdDev: rng.ExpFloat64() * 10}
			if rng.Intn(4) == 0 {
				g.StdDev = 0
			}
			var err error
			if dims[d], err = AppendDiscretizedGaussian(nil, g, order); err != nil {
				t.Fatalf("AppendDiscretizedGaussian: %v", err)
			}
		}
		want := referenceCartesianWeighted(dims)
		var err error
		combos, vals, err = AppendCartesianWeighted(combos[:0], vals[:0], dims)
		if err != nil {
			t.Fatalf("trial %d: AppendCartesianWeighted: %v", trial, err)
		}
		if len(combos) != len(want) {
			t.Fatalf("trial %d: %d combos, want %d", trial, len(combos), len(want))
		}
		for i, w := range want {
			got := combos[i]
			same := math.Float64bits(got.Weight) == math.Float64bits(w.Weight) && len(got.Values) == len(w.Values)
			for d := 0; same && d < len(w.Values); d++ {
				same = math.Float64bits(got.Values[d]) == math.Float64bits(w.Values[d])
			}
			if !same {
				t.Fatalf("trial %d (%d metrics, order %d): combo %d = %+v, want %+v bitwise", trial, len(dims), order, i, got, w)
			}
		}
	}
	unit := [][]WeightedValue{{{Value: 1, Weight: 1}}}
	if allocs := testing.AllocsPerRun(100, func() { combos, vals, _ = AppendCartesianWeighted(combos[:0], vals[:0], unit) }); allocs != 0 {
		t.Errorf("a product into spare capacity allocates %v times, want 0", allocs)
	}
}
