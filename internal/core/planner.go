package core

import (
	"fmt"

	"repro/internal/configspace"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/optimizer"
)

// planner implements the configuration-selection logic of Algorithms 1 and 2:
// it turns the optimizer's history into speculation states and simulates
// exploration paths to score every eligible candidate.
//
// The planner never materializes the configuration space. Each decision asks
// Params.Search for the candidate IDs to consider, gathers them into an
// active candidate set (features decoded into a reusable arena), and keys
// every model memo by the candidate's dense slot within that set — so memory
// and sweep cost scale with the candidate set, not the space.
type planner struct {
	params    Params
	opts      optimizer.Options
	space     *configspace.Space
	factory   model.Factory
	refitMode SpeculativeRefit
	iteration int

	// extraNames lists the extra-constraint metric names in sorted order —
	// the order of every per-constraint slice in the planner (trainSet.extras,
	// modelSet.extras, speculated outcome vectors) — and extraMax[k] is the
	// threshold of extraNames[k]. Both are resolved once here so the
	// per-candidate loops index instead of scanning Options.ExtraConstraints.
	extraNames []string
	extraMax   []float64

	// prices lazily memoizes unit prices per candidate, so huge spaces never
	// pay a full-space price sweep at planner creation.
	prices *optimizer.PriceCache

	// eligZ caches Φ⁻¹(EligibilityProb) for the incremental mode's
	// eligibility test: "P(cost ≤ budget) ≥ prob" becomes the algebraically
	// equivalent "budget ≥ mean + z·σ", which costs one multiply instead of
	// one erfc per candidate per speculated state. Full mode keeps the
	// historical CDF comparison bit for bit (eligUseZ false there, and also
	// when the quantile is unavailable, e.g. EligibilityProb = 1).
	eligZ    float64
	eligUseZ bool

	// sched is the persistent speculation scheduler (Params.Workers wide).
	// Each worker speculates on one incremental-mode path workspace (working
	// copy plus its tree storage, per-depth scratch) for every candidate and
	// decision it serves. A working copy is used only while it provably equals
	// the decision's root models (pathWorkspace.working) and is copied afresh
	// otherwise, so reuse never leaks model state between paths and the
	// recommendation stays scheduling-free.
	sched *specScheduler

	// shared is the campaign's share group (nil outside a group). When set,
	// the scheduler draws workspaces from the group pool (incremental mode),
	// and — for key-capturable configurations, see sharable — nextConfig
	// adopts and publishes whole decisions through the group's decision
	// cache. keyBuf is the reusable cache-key assembly buffer.
	shared *ShareGroup
	keyBuf []byte

	// Per-decision scratch rebuilt by nextConfig; read-only during the
	// parallel path-evaluation fan-out.
	featArena  []float64            // backing store of the candidates' features
	colsBuf    []float64            // backing store of the slot-major feature matrix
	activeCols [][]float64          // activeCols[d][slot]: feature d of the active candidate in that slot
	activeCfgs []configspace.Config // decoded configs of active candidates (built only when SetupCost is set)
	rootBounds boundTable           // the root state's bound table (built only when Lookahead ≥ 1)
}

// resolveRefitMode turns SpecRefitAuto into a concrete mode from the
// lookahead window and the per-decision candidate bound of the search.
func resolveRefitMode(mode SpeculativeRefit, lookahead, candidateBound int) SpeculativeRefit {
	if mode != SpecRefitAuto {
		return mode
	}
	if lookahead >= 3 || lookahead*candidateBound >= AutoIncrementalWork {
		return SpecRefitIncremental
	}
	return SpecRefitFull
}

// newPlanner builds the planner of one campaign. g is the campaign's share
// group, nil outside one: in incremental mode a grouped planner checks its
// workers' workspaces out of the group pool per scheduler run instead of
// holding private ones.
func newPlanner(params Params, env optimizer.Environment, opts optimizer.Options, g *ShareGroup) (*planner, error) {
	space := env.Space()
	mode := resolveRefitMode(params.SpeculativeRefit, params.Lookahead, params.Search.candidateBound(space.Size()))
	factory := params.ModelFactory
	if factory == nil {
		// The default bagging factory retains incremental state only when the
		// speculative path needs it: Full-mode fits stay byte-for-byte the
		// historical ones with no retention overhead.
		m := params.Model
		m.Incremental = mode == SpecRefitIncremental
		factory = model.NewBaggingFactory(m, opts.Seed)
	} else if mode == SpecRefitIncremental {
		if _, ok := factory.New(-1).(model.IncrementalRegressor); !ok {
			if params.SpeculativeRefit == SpecRefitIncremental {
				return nil, fmt.Errorf("core: SpeculativeRefit Incremental requires incremental-update support (model.IncrementalRegressor), which the %q factory's models lack", factory.Name())
			}
			mode = SpecRefitFull
		}
	}
	p := &planner{
		params:    params,
		opts:      opts,
		space:     space,
		factory:   factory,
		refitMode: mode,
		prices:    optimizer.NewPriceCache(env),
		shared:    g,
	}
	p.extraNames, p.extraMax = optimizer.SortedConstraints(opts.ExtraConstraints)
	var pool *workspacePool
	var shape string
	if g != nil && mode == SpecRefitIncremental {
		pool, shape = g.workspaces, p.workspaceShape()
	}
	p.sched = newSpecScheduler(params.Workers, pool, shape)
	if mode == SpecRefitIncremental {
		if z, err := numeric.NormalQuantile(params.EligibilityProb); err == nil {
			p.eligZ, p.eligUseZ = z, true
		}
	}
	return p, nil
}

// candidateConfig returns the full configuration of an active candidate.
// Only setup-cost campaigns call it, and selectCandidates decodes all their
// candidates into activeCfgs, slot by slot.
func (p *planner) candidateConfig(c candidate) configspace.Config {
	return p.activeCfgs[c.slot]
}
