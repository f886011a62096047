package core

import (
	"fmt"
	"sort"

	"repro/internal/configspace"
	"repro/internal/numeric"
)

// Search defaults.
const (
	// DefaultSampleSize is the number of candidates sampled search considers
	// per decision when SampleSize is not positive.
	DefaultSampleSize = 1024
	// DefaultAutoSampleThreshold is the space size above which the zero
	// Search samples instead of scoring every untested configuration.
	DefaultAutoSampleThreshold = 4096
)

// Search selects which untested configurations the planner considers at one
// decision. The paper's prototype scores every untested configuration per
// refit (exhaustive search); that stops scaling once the space grows to
// production sizes (10^5+ points), where sampled search bounds the
// per-decision candidate set and keeps planning time roughly constant.
//
// Either selection is a pure function of (space, excluded set, decision
// index, seed) and never of the worker count: the selected IDs — not
// scheduling — drive every downstream decision.
type Search struct {
	// Strategy names the strategy:
	//
	//   - "" (auto): "exhaustive" for spaces up to DefaultAutoSampleThreshold
	//     configurations, "sampled" above — small spaces keep the paper's
	//     behavior, large ones stay tractable without further configuration.
	//     A non-zero SampleSize selects "sampled" outright;
	//   - "exhaustive": every untested configuration is scored at every
	//     decision (the paper's behavior; recommendations are
	//     bitwise-identical to pre-sampling versions of this library);
	//   - "sampled": a deterministic, seeded subsample of at most SampleSize
	//     untested configurations per decision. Different decisions draw
	//     different subsamples, so the campaign still covers the space over
	//     time, while one (seed, decision index) pair always draws the same
	//     candidates.
	//
	// Any other name is rejected.
	Strategy string
	// SampleSize bounds the per-decision candidate set of sampled search
	// (not positive = DefaultSampleSize). Exhaustive search ignores it.
	SampleSize int
}

// digest is the search's paramsDigest fragment. The renderings are frozen:
// snapshots on disk carry them.
func (s Search) digest() string {
	switch {
	case s.Strategy == "exhaustive":
		return "exhaustive"
	case s.Strategy == "sampled" || s.SampleSize != 0:
		return fmt.Sprintf("sampled/%d", s.SampleSize)
	}
	return "auto"
}

// sampleSize returns the per-decision sample bound the search resolves to over
// a space of spaceSize configurations, or 0 for exhaustive search.
func (s Search) sampleSize(spaceSize int) int {
	switch {
	case s.Strategy == "exhaustive",
		s.Strategy == "" && s.SampleSize == 0 && spaceSize <= DefaultAutoSampleThreshold:
		return 0
	case s.SampleSize <= 0:
		return DefaultSampleSize
	}
	return s.SampleSize
}

// candidateBound returns an upper bound on the number of candidates the
// search hands the planner per decision. It sizes the SpecRefitAuto
// resolution.
func (s Search) candidateBound(spaceSize int) int {
	if n := s.sampleSize(spaceSize); n > 0 && n < spaceSize {
		return n
	}
	return spaceSize
}

// candidates returns the IDs of the configurations examined at one decision,
// in increasing ID order. excluded reports whether a configuration is out of
// consideration — already profiled or quarantined after exhausting its retry
// attempts (History.Excluded); untestedCount is the number of configurations
// remaining; iteration counts the planner's decisions from zero; seed is the
// run seed (Options.Seed).
//
// Sampled search draws pseudorandom IDs from the (seed, iteration) stream
// until SampleSize distinct untested ones are found — O(SampleSize) work
// independent of the space size. When the untested fraction is too thin for
// rejection sampling (only possible near the end of a campaign), it falls back
// to ranking every untested ID by a per-ID hash, which is equally
// deterministic. With no more than SampleSize configurations left it selects
// them all, as exhaustive search does.
func (s Search) candidates(space *configspace.Space, excluded func(id int) bool, untestedCount, iteration int, seed int64) []int {
	size := s.sampleSize(space.Size())
	if size == 0 || untestedCount <= size {
		out := make([]int, 0, untestedCount)
		for id := 0; id < space.Size(); id++ {
			if !excluded(id) {
				out = append(out, id)
			}
		}
		return out
	}
	total := space.Size()
	state := sampleStream(seed, iteration)
	chosen := make(map[int]struct{}, size)
	out := make([]int, 0, size)
	maxDraws := 32*size + 1024
	for draws := 0; draws < maxDraws && len(out) < size; draws++ {
		state += 0x9E3779B97F4A7C15
		id := int(numeric.SplitMix64(state) % uint64(total))
		if excluded(id) {
			continue
		}
		if _, dup := chosen[id]; dup {
			continue
		}
		chosen[id] = struct{}{}
		out = append(out, id)
	}
	if len(out) < size {
		out = rankedSample(space, excluded, size, seed, iteration)
	}
	sort.Ints(out)
	return out
}

// sampleStream seeds the per-decision draw stream from (seed, iteration).
func sampleStream(seed int64, iteration int) uint64 {
	return uint64(numeric.Mix(seed, int64(iteration)))
}

// rankedSample is sampled search's dense fallback: every untested ID is
// ranked by its per-ID hash under the decision's stream and the smallest size
// win. One O(space) pass, still worker-count independent.
func rankedSample(space *configspace.Space, excluded func(id int) bool, size int, seed int64, iteration int) []int {
	base := sampleStream(seed, iteration)
	type ranked struct {
		key uint64
		id  int
	}
	all := make([]ranked, 0, size*2)
	for id := 0; id < space.Size(); id++ {
		if excluded(id) {
			continue
		}
		all = append(all, ranked{key: numeric.SplitMix64(base + uint64(id)*0x9E3779B97F4A7C15), id: id})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].key != all[b].key {
			return all[a].key < all[b].key
		}
		return all[a].id < all[b].id
	})
	if len(all) > size {
		all = all[:size]
	}
	out := make([]int, len(all))
	for i, r := range all {
		out[i] = r.id
	}
	return out
}
