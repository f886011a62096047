package configspace

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func twoByThreeDims() []Dimension {
	return []Dimension{
		{Name: "vm", Values: []float64{1, 2}, Labels: []string{"small", "large"}},
		{Name: "workers", Values: []float64{4, 8, 16}},
	}
}

func TestNewEnumeratesCartesianProduct(t *testing.T) {
	s, err := New(twoByThreeDims(), nil)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	if s.Size() != 6 {
		t.Fatalf("Size = %d, want 6", s.Size())
	}
	if s.NumDimensions() != 2 {
		t.Fatalf("NumDimensions = %d, want 2", s.NumDimensions())
	}
	// IDs must be dense and configs must carry consistent features.
	for i, cfg := range s.Configs() {
		if cfg.ID != i {
			t.Errorf("config %d has ID %d", i, cfg.ID)
		}
		if len(cfg.Indices) != 2 || len(cfg.Features) != 2 {
			t.Fatalf("config %d has malformed indices/features: %+v", i, cfg)
		}
		dims := s.Dimensions()
		for d := range dims {
			if cfg.Features[d] != dims[d].Values[cfg.Indices[d]] {
				t.Errorf("config %d feature %d = %v, want %v",
					i, d, cfg.Features[d], dims[d].Values[cfg.Indices[d]])
			}
		}
	}
}

func TestNewWithFilter(t *testing.T) {
	// Keep only configurations where workers index is strictly greater than
	// the VM index, mimicking per-size cluster caps in the Scout dataset.
	filter := func(idx []int) bool { return idx[1] > idx[0] }
	s, err := New(twoByThreeDims(), filter)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3", s.Size())
	}
	for _, cfg := range s.Configs() {
		if cfg.Indices[1] <= cfg.Indices[0] {
			t.Errorf("filtered space contains excluded config %+v", cfg)
		}
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		dims []Dimension
	}{
		{name: "no dimensions", dims: nil},
		{name: "empty name", dims: []Dimension{{Name: "", Values: []float64{1}}}},
		{name: "no values", dims: []Dimension{{Name: "a"}}},
		{name: "label mismatch", dims: []Dimension{{Name: "a", Values: []float64{1, 2}, Labels: []string{"x"}}}},
		{name: "duplicate values", dims: []Dimension{{Name: "a", Values: []float64{1, 1}}}},
		{name: "duplicate names", dims: []Dimension{
			{Name: "a", Values: []float64{1}},
			{Name: "a", Values: []float64{2}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.dims, nil); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestNewEmptyAfterFilter(t *testing.T) {
	_, err := New(twoByThreeDims(), func([]int) bool { return false })
	if !errors.Is(err, ErrEmptySpace) {
		t.Errorf("error = %v, want ErrEmptySpace", err)
	}
}

func TestConfigAndLookup(t *testing.T) {
	s, err := New(twoByThreeDims(), nil)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	cfg, err := s.Config(3)
	if err != nil {
		t.Fatalf("Config(3) error: %v", err)
	}
	if cfg.ID != 3 {
		t.Errorf("Config(3).ID = %d", cfg.ID)
	}
	if _, err := s.Config(-1); err == nil {
		t.Error("Config(-1) expected error")
	}
	if _, err := s.Config(6); err == nil {
		t.Error("Config(6) expected error")
	}

	found, ok := s.Lookup([]int{1, 2})
	if !ok {
		t.Fatal("Lookup([1,2]) not found")
	}
	if found.Features[0] != 2 || found.Features[1] != 16 {
		t.Errorf("Lookup returned wrong config %+v", found)
	}
	if _, ok := s.Lookup([]int{5, 0}); ok {
		t.Error("Lookup of out-of-range indices should fail")
	}
	if _, ok := s.Lookup([]int{0}); ok {
		t.Error("Lookup with wrong arity should fail")
	}
}

func TestDescribeAndLabels(t *testing.T) {
	s, err := New(twoByThreeDims(), nil)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	cfg, ok := s.Lookup([]int{1, 0})
	if !ok {
		t.Fatal("Lookup failed")
	}
	desc := s.Describe(cfg)
	if !strings.Contains(desc, "vm=large") || !strings.Contains(desc, "workers=4") {
		t.Errorf("Describe = %q", desc)
	}
	d, err := s.Dimension(0)
	if err != nil {
		t.Fatalf("Dimension(0) error: %v", err)
	}
	if d.Label(0) != "small" || d.Label(1) != "large" {
		t.Errorf("labels = %q, %q", d.Label(0), d.Label(1))
	}
	if d.Label(5) != "" {
		t.Errorf("out-of-range label = %q, want empty", d.Label(5))
	}
	d1, err := s.Dimension(1)
	if err != nil {
		t.Fatalf("Dimension(1) error: %v", err)
	}
	if d1.Label(2) != "16" {
		t.Errorf("numeric fallback label = %q, want 16", d1.Label(2))
	}
	if _, err := s.Dimension(7); err == nil {
		t.Error("Dimension(7) expected error")
	}
}

func TestCloneIsolation(t *testing.T) {
	s, err := New(twoByThreeDims(), nil)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	cfg, err := s.Config(0)
	if err != nil {
		t.Fatalf("Config error: %v", err)
	}
	cfg.Features[0] = 999
	cfg.Indices[0] = 999
	again, err := s.Config(0)
	if err != nil {
		t.Fatalf("Config error: %v", err)
	}
	if again.Features[0] == 999 || again.Indices[0] == 999 {
		t.Error("mutating a returned config leaked into the space")
	}
}

func TestFeatureNamesAndIDs(t *testing.T) {
	s, err := New(twoByThreeDims(), nil)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	ids := s.IDs()
	if len(ids) != 6 {
		t.Fatalf("IDs length = %d", len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Errorf("IDs[%d] = %d", i, id)
		}
	}
}

func TestQuickSpaceSizeMatchesFilter(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDims := rng.Intn(3) + 1
		dims := make([]Dimension, nDims)
		total := 1
		for d := range dims {
			nVals := rng.Intn(4) + 1
			vals := make([]float64, nVals)
			for v := range vals {
				vals[v] = float64(v) + rng.Float64()/2
			}
			dims[d] = Dimension{Name: string(rune('a' + d)), Values: vals}
			total *= nVals
		}
		// Filter keeps combinations whose index sum is even.
		filter := func(idx []int) bool {
			sum := 0
			for _, i := range idx {
				sum += i
			}
			return sum%2 == 0
		}
		s, err := New(dims, filter)
		if err != nil {
			// A space can legitimately become empty only if the filter removes
			// everything, which cannot happen here since the all-zero index
			// vector always has an even sum.
			return false
		}
		if s.Size() > total {
			return false
		}
		for _, cfg := range s.Configs() {
			if !filter(cfg.Indices) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("space enumeration property failed: %v", err)
	}
}

func TestFeatureColumnsMatchConfigFeatures(t *testing.T) {
	space, err := New([]Dimension{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{10, 20}},
	}, func(indices []int) bool { return indices[0] != 1 || indices[1] != 1 })
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	cols := space.FeatureColumns()
	if len(cols) != space.NumDimensions() {
		t.Fatalf("FeatureColumns has %d columns, want %d", len(cols), space.NumDimensions())
	}
	for d, col := range cols {
		if len(col) != space.Size() {
			t.Fatalf("column %d has %d points, want %d", d, len(col), space.Size())
		}
	}
	for _, cfg := range space.Configs() {
		for d, v := range cfg.Features {
			if cols[d][cfg.ID] != v {
				t.Errorf("cols[%d][%d] = %v, want %v", d, cfg.ID, cols[d][cfg.ID], v)
			}
		}
	}
}

func testDims() []Dimension {
	return []Dimension{
		{Name: "a", Values: []float64{0, 1, 2}},
		{Name: "b", Values: []float64{10, 20}},
		{Name: "c", Values: []float64{0.5, 1.5, 2.5, 3.5}},
	}
}

// evenFilter keeps index vectors whose component sum is even.
func evenFilter(indices []int) bool {
	sum := 0
	for _, i := range indices {
		sum += i
	}
	return sum%2 == 0
}

// enumerate is the reference the decoder is checked against: the filtered
// cross-product of dims walked in lexicographic order, dense IDs assigned in
// that order.
func enumerate(dims []Dimension, filter Filter) []Config {
	var out []Config
	indices := make([]int, len(dims))
	for {
		if filter == nil || filter(indices) {
			cfg := Config{ID: len(out), Indices: append([]int(nil), indices...), Features: make([]float64, len(dims))}
			for d, idx := range indices {
				cfg.Features[d] = dims[d].Values[idx]
			}
			out = append(out, cfg)
		}
		d := len(indices) - 1
		for ; d >= 0; d-- {
			if indices[d]++; indices[d] < len(dims[d].Values) {
				break
			}
			indices[d] = 0
		}
		if d < 0 {
			return out
		}
	}
}

// TestDecodeMatchesEnumeration pins on-demand decoding to a plain enumeration
// of the (filtered) cross-product: same size, IDs, indices and features from
// Config, AppendFeatures and FeatureColumns, and IDOfIndices inverts Config.
func TestDecodeMatchesEnumeration(t *testing.T) {
	for _, filter := range []Filter{nil, evenFilter} {
		s, err := New(testDims(), filter)
		if err != nil {
			t.Fatalf("New error: %v", err)
		}
		want := enumerate(testDims(), filter)
		if s.Size() != len(want) {
			t.Fatalf("size = %d, want %d", s.Size(), len(want))
		}
		cols := s.FeatureColumns()
		for id, w := range want {
			got, err := s.Config(id)
			if err != nil {
				t.Fatalf("Config(%d): %v", id, err)
			}
			row, err := s.AppendFeatures(nil, id)
			if err != nil {
				t.Fatalf("AppendFeatures(%d): %v", id, err)
			}
			if got.ID != id {
				t.Fatalf("Config(%d).ID = %d", id, got.ID)
			}
			for d := range w.Indices {
				if got.Indices[d] != w.Indices[d] || got.Features[d] != w.Features[d] ||
					row[d] != w.Features[d] || cols[d][id] != w.Features[d] {
					t.Fatalf("config %d dim %d: got %+v row %v, want %+v", id, d, got, row, w)
				}
			}
			if back, ok := s.IDOfIndices(w.Indices); !ok || back != id {
				t.Fatalf("IDOfIndices(%v) = %d, %v, want %d", w.Indices, back, ok, id)
			}
		}
	}
}

// TestForEachBlockCoversSpace checks block iteration at block sizes below,
// at, and above the space size, with and without a filter.
func TestForEachBlockCoversSpace(t *testing.T) {
	for _, filter := range []Filter{nil, evenFilter} {
		s, err := New(testDims(), filter)
		if err != nil {
			t.Fatalf("New error: %v", err)
		}
		for _, blockSize := range []int{1, 3, s.Size(), s.Size() + 100, 0} {
			covered := 0
			err := s.ForEachBlock(blockSize, func(b Block) error {
				if b.Start != covered {
					t.Fatalf("block starts at %d, want %d", b.Start, covered)
				}
				if len(b.Cols) != s.NumDimensions() {
					t.Fatalf("block has %d columns, want %d", len(b.Cols), s.NumDimensions())
				}
				for i := 0; i < b.Len(); i++ {
					cfg, err := s.Config(b.Start + i)
					if err != nil {
						return err
					}
					for d := range b.Cols {
						if b.Cols[d][i] != cfg.Features[d] {
							t.Fatalf("block feature [%d][%d] = %v, want %v",
								d, i, b.Cols[d][i], cfg.Features[d])
						}
					}
				}
				covered += b.Len()
				return nil
			})
			if err != nil {
				t.Fatalf("ForEachBlock error: %v", err)
			}
			if covered != s.Size() {
				t.Fatalf("blocks covered %d configs, want %d", covered, s.Size())
			}
		}
	}
}

// TestSingleConfigSpace pins the smallest edge case.
func TestSingleConfigSpace(t *testing.T) {
	s, err := New([]Dimension{{Name: "only", Values: []float64{42}}}, nil)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	if s.Size() != 1 {
		t.Fatalf("size = %d, want 1", s.Size())
	}
	blocks := 0
	if err := s.ForEachBlock(1000, func(b Block) error {
		blocks++
		if b.Len() != 1 || b.Cols[0][0] != 42 {
			t.Fatalf("unexpected block %+v", b)
		}
		return nil
	}); err != nil {
		t.Fatalf("ForEachBlock error: %v", err)
	}
	if blocks != 1 {
		t.Fatalf("blocks = %d, want 1", blocks)
	}
}

// TestFilterRejectsAllIsClearError requires the rejected-everything case to
// surface as ErrEmptySpace with the combination count.
func TestFilterRejectsAllIsClearError(t *testing.T) {
	_, err := New(testDims(), func([]int) bool { return false })
	if !errors.Is(err, ErrEmptySpace) {
		t.Fatalf("error = %v, want ErrEmptySpace", err)
	}
	if !strings.Contains(err.Error(), "24 combinations") {
		t.Errorf("error %q does not name the rejected combination count", err)
	}
}

// TestCrossProductOverflowGuard requires dimension products that overflow int
// to be rejected instead of wrapping silently.
func TestCrossProductOverflowGuard(t *testing.T) {
	values := make([]float64, 1<<16)
	for i := range values {
		values[i] = float64(i)
	}
	dims := []Dimension{
		{Name: "a", Values: values},
		{Name: "b", Values: values},
		{Name: "c", Values: values},
		{Name: "d", Values: values},
	}
	if _, err := New(dims, nil); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("error = %v, want overflow guard", err)
	}
}

// TestLargeSpaceHasNoSizeLimit builds a 2.25M-point space, which no
// per-configuration storage would fit cheaply, and decodes its last point.
func TestLargeSpaceHasNoSizeLimit(t *testing.T) {
	values := make([]float64, 1500)
	for i := range values {
		values[i] = float64(i)
	}
	s, err := New([]Dimension{{Name: "a", Values: values}, {Name: "b", Values: values}}, nil)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	if s.Size() != 1500*1500 {
		t.Fatalf("size = %d, want %d", s.Size(), 1500*1500)
	}
	cfg, err := s.Config(s.Size() - 1)
	if err != nil {
		t.Fatalf("Config error: %v", err)
	}
	if cfg.Features[0] != 1499 || cfg.Features[1] != 1499 {
		t.Fatalf("last config = %+v", cfg)
	}
}

// TestAppendFeaturesArena checks arena decoding against Config on a filtered
// space.
func TestAppendFeaturesArena(t *testing.T) {
	s, err := New(testDims(), evenFilter)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	arena := make([]float64, 0, s.Size()*s.NumDimensions())
	for id := 0; id < s.Size(); id++ {
		var err error
		arena, err = s.AppendFeatures(arena, id)
		if err != nil {
			t.Fatalf("AppendFeatures(%d): %v", id, err)
		}
	}
	for id := 0; id < s.Size(); id++ {
		cfg, err := s.Config(id)
		if err != nil {
			t.Fatalf("Config(%d): %v", id, err)
		}
		row := arena[id*s.NumDimensions() : (id+1)*s.NumDimensions()]
		for d := range row {
			if row[d] != cfg.Features[d] {
				t.Fatalf("arena row %d = %v, want %v", id, row, cfg.Features)
			}
		}
	}
	if _, err := s.AppendFeatures(nil, s.Size()); err == nil {
		t.Fatal("AppendFeatures accepted an out-of-range ID")
	}
}

// scanNearest is NearestID's reference: a scan of every configuration for
// the smallest normalized index distance to target, ties to the lower ID, -1
// when skip excludes everything.
func scanNearest(dims []Dimension, all []Config, target []int, skip func(int) bool) int {
	best, bestDist := -1, math.Inf(1)
	for _, cfg := range all {
		if skip(cfg.ID) {
			continue
		}
		dist := 0.0
		for d := range target {
			span := float64(len(dims[d].Values) - 1)
			if span == 0 {
				span = 1
			}
			delta := float64(cfg.Indices[d]-target[d]) / span
			dist += delta * delta
		}
		if dist < bestDist {
			best, bestDist = cfg.ID, dist
		}
	}
	return best
}

// TestNearestIDFiltered checks nearest-ID mapping on a filtered space against
// a brute-force scan of the normalized index distance: members map to
// themselves, skipped members and non-members to the closest remaining
// configuration (ties to the lower ID), and out-of-range or fully skipped
// targets are refused.
func TestNearestIDFiltered(t *testing.T) {
	dims := testDims()
	s, err := New(dims, evenFilter)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	all := enumerate(dims, evenFilter)
	skipNone := func(int) bool { return false }
	skipOdd := func(id int) bool { return id%2 == 1 }
	for _, cfg := range all {
		if got, ok := s.NearestID(cfg.Indices, nil); !ok || got != cfg.ID {
			t.Fatalf("NearestID(%v) = %d, %v, want %d", cfg.Indices, got, ok, cfg.ID)
		}
	}
	target := make([]int, len(dims))
	for flat := 0; flat < 24; flat++ {
		for d, rem := len(dims)-1, flat; d >= 0; d-- {
			target[d] = rem % len(dims[d].Values)
			rem /= len(dims[d].Values)
		}
		for _, skip := range []func(int) bool{skipNone, skipOdd} {
			want := scanNearest(dims, all, target, skip)
			if got, ok := s.NearestID(target, skip); !ok || got != want {
				t.Fatalf("NearestID(%v) = %d, %v, want %d", target, got, ok, want)
			}
		}
	}
	if _, ok := s.NearestID([]int{9, 9, 9}, nil); ok {
		t.Fatal("NearestID accepted out-of-range indices")
	}
	if _, ok := s.NearestID([]int{0, 0, 0}, func(int) bool { return true }); ok {
		t.Fatal("NearestID returned a configuration with every ID skipped")
	}
}

// TestQuickNearestIDMatchesScan checks the best-first search against the scan
// on random spaces (single-value dimensions included), random filters and
// random skip sets, for every target of the grid.
func TestQuickNearestIDMatchesScan(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]Dimension, rng.Intn(3)+1)
		for d := range dims {
			vals := make([]float64, rng.Intn(5)+1)
			for v := range vals {
				vals[v] = float64(v)
			}
			dims[d] = Dimension{Name: string(rune('a' + d)), Values: vals}
		}
		keep := rng.Float64()
		filter := func([]int) bool { return rng.Float64() < keep }
		s, err := New(dims, filter)
		if errors.Is(err, ErrEmptySpace) {
			return true
		}
		if err != nil {
			return false
		}
		all := enumerate(dims, func(indices []int) bool { _, ok := s.IDOfIndices(indices); return ok })
		skipped := make(map[int]bool)
		for id := 0; id < s.Size(); id++ {
			skipped[id] = rng.Intn(3) == 0
		}
		skip := func(id int) bool { return skipped[id] }
		for _, target := range enumerate(dims, nil) {
			want := scanNearest(dims, all, target.Indices, skip)
			got, ok := s.NearestID(target.Indices, skip)
			if ok != (want >= 0) || (ok && got != want) {
				t.Logf("seed %d: NearestID(%v) = %d, %v, want %d", seed, target.Indices, got, ok, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
