package core

import (
	"strings"
	"testing"

	"repro/internal/configspace"
)

func searchSpace(t *testing.T, n int) *configspace.Space {
	t.Helper()
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	s, err := configspace.New([]configspace.Dimension{{Name: "x", Values: values}}, nil)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	return s
}

func TestExhaustiveSelectsAllUntested(t *testing.T) {
	space := searchSpace(t, 10)
	tested := map[int]bool{2: true, 7: true}
	ids := Search{Strategy: "exhaustive"}.candidates(space, func(id int) bool { return tested[id] }, 8, 0, 1)
	want := []int{0, 1, 3, 4, 5, 6, 8, 9}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestSampledIsDeterministicAndBounded(t *testing.T) {
	space := searchSpace(t, 10_000)
	none := func(int) bool { return false }
	s := Search{Strategy: "sampled", SampleSize: 64}

	a := s.candidates(space, none, space.Size(), 3, 42)
	b := s.candidates(space, none, space.Size(), 3, 42)
	if len(a) != 64 {
		t.Fatalf("sample size = %d, want 64", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed, iteration) drew different samples: %v vs %v", a, b)
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("sample not strictly increasing: %v", a)
		}
		if a[i] < 0 || a[i] >= space.Size() {
			t.Fatalf("sample id %d out of range", a[i])
		}
	}

	// A different iteration draws a different subsample (covering the space
	// over the campaign).
	c := s.candidates(space, none, space.Size(), 4, 42)
	same := 0
	for i := range c {
		if c[i] == a[i] {
			same++
		}
	}
	if same == len(c) {
		t.Fatal("iterations 3 and 4 drew the identical subsample")
	}
}

func TestSampledSkipsTestedIDs(t *testing.T) {
	space := searchSpace(t, 5_000)
	tested := func(id int) bool { return id%2 == 0 }
	ids := Search{Strategy: "sampled", SampleSize: 128}.candidates(space, tested, space.Size()/2, 1, 9)
	if len(ids) != 128 {
		t.Fatalf("sample size = %d, want 128", len(ids))
	}
	for _, id := range ids {
		if id%2 == 0 {
			t.Fatalf("sample contains tested id %d", id)
		}
	}
}

func TestSampledDegeneratesToExhaustive(t *testing.T) {
	space := searchSpace(t, 100)
	tested := func(id int) bool { return id >= 30 }
	ids := Search{Strategy: "sampled", SampleSize: 64}.candidates(space, tested, 30, 2, 5)
	if len(ids) != 30 {
		t.Fatalf("sample = %d ids, want all 30 untested", len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("ids = %v, want 0..29", ids)
		}
	}
}

func TestSampledSizeAtLeastSpaceIsExhaustiveAndDeterministic(t *testing.T) {
	space := searchSpace(t, 50)
	none := func(int) bool { return false }
	for _, size := range []int{50, 51, 1024} {
		s := Search{Strategy: "sampled", SampleSize: size}
		var first []int
		// The selection must be the full untested set in increasing ID order,
		// identical across iterations and seeds (nothing left to sample).
		for _, key := range []struct {
			iter int
			seed int64
		}{{0, 1}, {7, 1}, {0, 99}} {
			ids := s.candidates(space, none, space.Size(), key.iter, key.seed)
			if len(ids) != space.Size() {
				t.Fatalf("size=%d returned %d ids, want the whole space (%d)", size, len(ids), space.Size())
			}
			for i, id := range ids {
				if id != i {
					t.Fatalf("size=%d ids = %v, want 0..%d", size, ids, space.Size()-1)
				}
			}
			if first == nil {
				first = ids
				continue
			}
			for i := range ids {
				if ids[i] != first[i] {
					t.Fatalf("degenerate selection varies with (iteration, seed): %v vs %v", ids, first)
				}
			}
		}
	}
}

func TestSampledRankedFallback(t *testing.T) {
	space := searchSpace(t, 1_000)
	tested := func(id int) bool { return id%3 != 0 }
	got := rankedSample(space, tested, 16, 11, 4)
	if len(got) != 16 {
		t.Fatalf("ranked sample = %d ids, want 16", len(got))
	}
	seen := map[int]bool{}
	for _, id := range got {
		if id%3 != 0 {
			t.Fatalf("ranked sample contains tested id %d", id)
		}
		if seen[id] {
			t.Fatalf("ranked sample repeats id %d", id)
		}
		seen[id] = true
	}
	again := rankedSample(space, tested, 16, 11, 4)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("ranked fallback is not deterministic")
		}
	}
}

// TestResolveStrategyAuto pins what each Search value resolves to: the zero
// value is exhaustive up to DefaultAutoSampleThreshold configurations and
// samples DefaultSampleSize above it; a set SampleSize samples at that size
// (a non-positive one at the default); "exhaustive" never samples.
func TestResolveStrategyAuto(t *testing.T) {
	tests := []struct {
		search    Search
		spaceSize int
		want      int
	}{
		{Search{}, DefaultAutoSampleThreshold, 0},
		{Search{}, DefaultAutoSampleThreshold + 1, DefaultSampleSize},
		{Search{SampleSize: 7}, 100, 7},
		{Search{SampleSize: -3}, 100, DefaultSampleSize},
		{Search{Strategy: "exhaustive"}, 1_000_000, 0},
		{Search{Strategy: "exhaustive", SampleSize: 5}, 1_000_000, 0},
		{Search{Strategy: "sampled"}, 100, DefaultSampleSize},
		{Search{Strategy: "sampled", SampleSize: 256}, 100, 256},
	}
	for _, tt := range tests {
		if got := tt.search.sampleSize(tt.spaceSize); got != tt.want {
			t.Errorf("%+v.sampleSize(%d) = %d, want %d", tt.search, tt.spaceSize, got, tt.want)
		}
	}
}

// TestSearchDigest pins the search= fragment of paramsDigest to the rendering
// snapshots on disk carry: auto for the zero value, the bare name for
// exhaustive search, and sampled/<SampleSize as given> otherwise.
func TestSearchDigest(t *testing.T) {
	tests := []struct {
		search Search
		want   string
	}{
		{Search{}, "auto"},
		{Search{SampleSize: 7}, "sampled/7"},
		{Search{SampleSize: -3}, "sampled/-3"},
		{Search{Strategy: "exhaustive"}, "exhaustive"},
		{Search{Strategy: "exhaustive", SampleSize: 5}, "exhaustive"},
		{Search{Strategy: "sampled"}, "sampled/0"},
		{Search{Strategy: "sampled", SampleSize: 256}, "sampled/256"},
	}
	for _, tt := range tests {
		digest := paramsDigest(Params{Search: tt.search})
		if !strings.Contains(digest, " search="+tt.want+" ") {
			t.Errorf("paramsDigest(Search: %+v) = %q, want fragment search=%s", tt.search, digest, tt.want)
		}
	}
}
