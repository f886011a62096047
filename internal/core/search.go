package core

import (
	"fmt"
	"sort"

	"repro/internal/configspace"
	"repro/internal/numeric"
)

// Search-strategy defaults.
const (
	// DefaultSampleSize is the number of candidates Sampled considers per
	// decision when none is configured.
	DefaultSampleSize = 1024
	// DefaultAutoSampleThreshold is the space size above which a nil
	// Params.Search resolves to Sampled instead of Exhaustive.
	DefaultAutoSampleThreshold = 4096
)

// SearchStrategy chooses which untested configurations the planner considers
// at one decision. The paper's prototype sweeps every untested configuration
// per refit; that is Exhaustive, and it stops scaling once the space grows to
// production sizes (10^5+ points). Sampled bounds the per-decision candidate
// set, keeping planning time roughly constant as the space grows.
//
// Implementations must be deterministic given (space, tested set, iteration,
// seed) and must not depend on the planner's worker count: the selected IDs —
// not scheduling — drive every downstream decision.
type SearchStrategy interface {
	// Name identifies the strategy, e.g. "exhaustive" or "sampled".
	Name() string
	// Select returns the IDs of the candidate configurations examined at this
	// decision, in increasing ID order. tested reports whether a
	// configuration is out of consideration — already profiled or quarantined
	// after exhausting its retry attempts (History.Excluded); untestedCount is
	// the number of configurations remaining; iteration counts the planner's
	// decisions from zero; seed is the run seed (Options.Seed).
	Select(space *configspace.Space, tested func(id int) bool, untestedCount, iteration int, seed int64) ([]int, error)
}

// resolveStrategy returns the strategy a planner uses over a space: the
// explicitly configured one, or — for a nil strategy — Exhaustive on
// paper-scale spaces and Sampled above DefaultAutoSampleThreshold.
func resolveStrategy(explicit SearchStrategy, spaceSize int) SearchStrategy {
	if explicit != nil {
		return explicit
	}
	if spaceSize <= DefaultAutoSampleThreshold {
		return Exhaustive{}
	}
	return Sampled{}
}

// strategyCandidateBound returns an upper bound on the number of candidates
// the strategy hands the planner per decision. It sizes the SpecRefitAuto
// resolution: custom strategies conservatively report the space size.
func strategyCandidateBound(s SearchStrategy, spaceSize int) int {
	switch t := s.(type) {
	case Exhaustive:
		return spaceSize
	case Sampled:
		size := t.Size
		if size <= 0 {
			size = DefaultSampleSize
		}
		if size > spaceSize {
			return spaceSize
		}
		return size
	default:
		return spaceSize
	}
}

// Exhaustive considers every untested configuration at every decision — the
// paper's behavior. Recommendations are bitwise-identical to the
// pre-strategy planner (pinned by the golden campaign tests), which makes it
// the reference implementation and the default for small spaces.
type Exhaustive struct{}

// Name implements SearchStrategy.
func (Exhaustive) Name() string { return "exhaustive" }

// Select implements SearchStrategy: all untested IDs in increasing order.
func (Exhaustive) Select(space *configspace.Space, tested func(id int) bool, untestedCount, iteration int, seed int64) ([]int, error) {
	out := make([]int, 0, untestedCount)
	for id := 0; id < space.Size(); id++ {
		if !tested(id) {
			out = append(out, id)
		}
	}
	return out, nil
}

// Sampled considers a bounded, deterministic, seeded subsample of the
// untested configurations at every decision, so per-decision planning cost
// stays roughly constant as the space grows. Different decisions draw
// different subsamples (the stream is keyed by iteration), so the campaign
// still covers the space over time, while a fixed (seed, iteration) pair
// always draws the same candidates — independent of worker count.
type Sampled struct {
	// Size is the maximum number of candidates per decision; 0 selects
	// DefaultSampleSize. When fewer than Size configurations remain untested
	// the selection degenerates to Exhaustive.
	Size int
}

// Name implements SearchStrategy.
func (s Sampled) Name() string { return "sampled" }

// sampleStream seeds the per-decision draw stream from (seed, iteration).
func sampleStream(seed int64, iteration int) uint64 {
	return uint64(numeric.Mix(seed, int64(iteration)))
}

// Select implements SearchStrategy. The common path draws pseudorandom IDs
// from the (seed, iteration) stream until Size distinct untested ones are
// found — O(Size) work independent of the space size. When the untested
// fraction is too thin for rejection sampling (only possible near the end of
// a campaign), it falls back to ranking every untested ID by a per-ID hash,
// which is equally deterministic.
func (s Sampled) Select(space *configspace.Space, tested func(id int) bool, untestedCount, iteration int, seed int64) ([]int, error) {
	size := s.Size
	if size <= 0 {
		size = DefaultSampleSize
	}
	if size < 1 {
		return nil, fmt.Errorf("core: sampled search with non-positive size %d", size)
	}
	if untestedCount <= size {
		return Exhaustive{}.Select(space, tested, untestedCount, iteration, seed)
	}
	total := space.Size()
	state := sampleStream(seed, iteration)
	chosen := make(map[int]struct{}, size)
	out := make([]int, 0, size)
	maxDraws := 32*size + 1024
	for draws := 0; draws < maxDraws && len(out) < size; draws++ {
		state += 0x9E3779B97F4A7C15
		id := int(numeric.SplitMix64(state) % uint64(total))
		if tested(id) {
			continue
		}
		if _, dup := chosen[id]; dup {
			continue
		}
		chosen[id] = struct{}{}
		out = append(out, id)
	}
	if len(out) < size {
		out = s.rankedSample(space, tested, size, seed, iteration)
	}
	sort.Ints(out)
	return out, nil
}

// rankedSample is the dense fallback: every untested ID is ranked by its
// per-ID hash under the decision's stream and the smallest Size win. One
// O(space) pass, still worker-count independent.
func (s Sampled) rankedSample(space *configspace.Space, tested func(id int) bool, size int, seed int64, iteration int) []int {
	base := sampleStream(seed, iteration)
	type ranked struct {
		key uint64
		id  int
	}
	all := make([]ranked, 0, size*2)
	for id := 0; id < space.Size(); id++ {
		if tested(id) {
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

// Statically assert the strategies implement the interface.
var (
	_ SearchStrategy = Exhaustive{}
	_ SearchStrategy = Sampled{}
)
