package numeric

import (
	"fmt"
	"sort"
)

// SplitMix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// hash. Every counter-indexed stream of the library (candidate sampling,
// bootstrap resampling, retry jitter, fault injection, workload noise seeds)
// draws from it, so changing it changes every golden.
func SplitMix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Mix combines two 64-bit coordinates into one well-distributed seed: each
// coordinate is scaled by its own odd constant, an offset is added, and the
// sum is finalized by SplitMix64.
func Mix(a, b int64) int64 {
	return int64(SplitMix64(uint64(a)*0x9E3779B97F4A7C15 + uint64(b)*0xD1B54A32D192ED03 + 0x8CB92BA72F3D8DD7))
}

// SampledStats estimates the q-quantile of a metric x and the mean of a cost
// over a space of size configurations from a subsample of distinct IDs. The
// IDs come from a SplitMix64 stream seeded by Mix(salt, 0x5EED), duplicates
// rejected, so equal arguments always sample the same IDs. samples <= 0
// selects defaultSamples, and the count is capped at size. eval returns the
// (x, cost) pair of one ID; prefix names the caller in the range error.
func SampledStats(prefix string, size int, salt int64, q float64, samples, defaultSamples int, eval func(id int) (x, cost float64, err error)) (xQ, meanCost float64, err error) {
	if q < 0 || q > 1 {
		return 0, 0, fmt.Errorf("%s: quantile %v outside [0,1]", prefix, q)
	}
	if samples <= 0 {
		samples = defaultSamples
	}
	if samples > size {
		samples = size
	}
	xs := make([]float64, 0, samples)
	sumCost := 0.0
	state := uint64(Mix(salt, 0x5EED))
	seen := make(map[int]struct{}, samples)
	for len(xs) < samples {
		state += 0x9E3779B97F4A7C15
		id := int(SplitMix64(state) % uint64(size))
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		x, cost, err := eval(id)
		if err != nil {
			return 0, 0, err
		}
		xs = append(xs, x)
		sumCost += cost
	}
	sort.Float64s(xs)
	idx := int(q * float64(len(xs)-1))
	return xs[idx], sumCost / float64(len(xs)), nil
}
