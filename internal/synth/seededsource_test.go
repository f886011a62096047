package synth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

// seededSourceDraws draws well past seededDraws, so every comparison also
// runs the rand.NewSource fallback.
const seededSourceDraws = 40

// compareWithMathRand draws seededSourceDraws values from seededSource and
// from rand.NewSource(seed), choosing NormFloat64 or Float64 per draw from a
// bit of pattern, and reports the first draw whose bits differ.
func compareWithMathRand(t *testing.T, seed int64, pattern uint64) {
	t.Helper()
	got, want := rand.New(newSeededSource(seed)), rand.New(rand.NewSource(seed))
	for i := range seededSourceDraws {
		var g, w float64
		if pattern>>i&1 == 0 {
			g, w = got.NormFloat64(), want.NormFloat64()
		} else {
			g, w = got.Float64(), want.Float64()
		}
		if g, w := math.Float64bits(g), math.Float64bits(w); g != w {
			t.Fatalf("seed %d pattern %#x: draw %d = %#x, math/rand gives %#x", seed, pattern, i, g, w)
		}
	}
}

func TestSeededSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for k := int64(1); k <= 4; k++ {
		m := k * lehmerMod
		seeds = append(seeds, m, -m, m+1, m-1, -m+1, -m-1, math.MaxInt64/lehmerMod*lehmerMod/k)
	}
	for i := range 100_000 {
		seeds = append(seeds, numeric.Mix(int64(i), 0x5EED))
	}
	for i, seed := range seeds {
		compareWithMathRand(t, seed, uint64(numeric.Mix(seed, int64(i))))
	}
}

func TestSeededSourceSeedResets(t *testing.T) {
	src := newSeededSource(7)
	for range 2 * seededDraws {
		src.Int63()
	}
	src.Seed(-3)
	ref := rand.NewSource(-3)
	for i := range 2 * seededDraws {
		if g, w := src.Int63(), ref.Int63(); g != w {
			t.Fatalf("after Seed(-3): draw %d = %d, math/rand gives %d", i, g, w)
		}
	}
}

func FuzzSeededSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, -1, math.MinInt64, math.MaxInt64, lehmerMod, -2 * lehmerMod} {
		f.Add(seed, uint64(0))
		f.Add(seed, ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, pattern uint64) {
		compareWithMathRand(t, seed, pattern)
	})
}
