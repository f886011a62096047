package experiments

import (
	"fmt"
	"sort"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/lhs"
	"repro/internal/optimizer"
	"repro/internal/report"
	"repro/internal/servesim"
)

// servesimSpace is the configuration space of the serving experiment: the
// profiles' default knobs reduced to 144 points (4 replica counts x 4
// instance types x 3 max-batches x 3 policies) so a multi-run campaign per
// optimizer stays laptop-scale.
var servesimSpace = servesim.SpaceParams{
	Replicas:   []int{1, 2, 3, 4},
	MaxBatches: []int{4, 8, 16},
}

// servesimTmaxQuantile picks the makespan constraint: the 0.7-quantile of a
// ground-truth subsample keeps roughly the fastest two thirds of the space
// feasible.
const servesimTmaxQuantile = 0.7

// runServesim evaluates Lynceus (LA=2 with incremental speculative refits)
// against the BO and RND baselines on the stochastic serving-cluster
// environments — a reproduction addition, not a paper artifact. Unlike the
// lookup-table datasets, every profiling run draws fresh noise, so this is
// the tuners' behavior under genuine observation noise. CNO is computed
// against the seed-averaged analytic optimum of each profile's space.
func (s *Suite) runServesim() ([]report.Table, error) {
	profiles := servesim.Profiles()
	if s.opts.ServesimProfileLimit > 0 && s.opts.ServesimProfileLimit < len(profiles) {
		profiles = profiles[:s.opts.ServesimProfileLimit]
	}

	table := report.Table{
		Title: "Serving-cluster tuning under observation noise (CNO vs analytic optimum)",
		Columns: []string{
			"profile", "optimizer", "runs", "cno_avg", "cno_p50", "cno_p90",
			"frac_within_10pct", "nex_avg", "spent_avg",
		},
	}

	for _, profile := range profiles {
		scenario, err := servesim.ProfileScenario(profile)
		if err != nil {
			return nil, err
		}
		// Ground truth, the makespan constraint, and the budget derive from
		// environment-seed-independent streams, so one scan serves every run.
		ref, err := servesim.NewEnv(scenario, servesimSpace, 0)
		if err != nil {
			return nil, err
		}
		tmax, meanCost, err := ref.ApproxStats(servesimTmaxQuantile, 96)
		if err != nil {
			return nil, err
		}
		bootstrap, err := lhs.DefaultBootstrapSize(ref.Space())
		if err != nil {
			return nil, err
		}
		budget := float64(bootstrap) * meanCost * 3
		best, err := ref.Optimum(tmax, 5)
		if err != nil {
			return nil, err
		}

		opts := []struct {
			name  string
			build func() (optimizer.Optimizer, error)
		}{
			{"lynceus-la2", func() (optimizer.Optimizer, error) {
				return core.New(core.Params{
					Lookahead:        2,
					Model:            s.modelParams(),
					SpeculativeRefit: core.SpecRefitIncremental,
				})
			}},
			{"bo", func() (optimizer.Optimizer, error) { return s.bo(), nil }},
			{"rnd", func() (optimizer.Optimizer, error) { return baselines.NewRandom(), nil }},
		}
		for _, o := range opts {
			opt, err := o.build()
			if err != nil {
				return nil, err
			}
			cnos := make([]float64, 0, s.opts.Runs)
			nexSum, spentSum, within := 0.0, 0.0, 0.0
			for run := 0; run < s.opts.Runs; run++ {
				seed := s.opts.Seed + int64(run)
				env, err := servesim.NewEnv(scenario, servesimSpace, seed)
				if err != nil {
					return nil, err
				}
				res, err := opt.Optimize(env, optimizer.Options{
					Budget:            budget,
					MaxRuntimeSeconds: tmax,
					Seed:              seed,
					ExtraConstraints:  []optimizer.Constraint{env.Constraint()},
				})
				if err != nil {
					return nil, fmt.Errorf("%s on %s (seed %d): %w", o.name, profile, seed, err)
				}
				got, err := env.True(res.Recommended.Config.ID, 5)
				if err != nil {
					return nil, err
				}
				cno := got.MeanCost / best.MeanCost
				cnos = append(cnos, cno)
				if cno <= 1.10 {
					within++
				}
				nexSum += float64(res.Explorations)
				spentSum += res.SpentBudget
			}
			sort.Float64s(cnos)
			n := float64(len(cnos))
			sum := 0.0
			for _, v := range cnos {
				sum += v
			}
			table.AddRow(
				profile,
				o.name,
				report.FormatInt(len(cnos)),
				report.FormatFloat(sum/n, 3),
				report.FormatFloat(quantileSorted(cnos, 0.5), 3),
				report.FormatFloat(quantileSorted(cnos, 0.9), 3),
				report.FormatFloat(within/n, 3),
				report.FormatFloat(nexSum/n, 1),
				report.FormatFloat(spentSum/n, 4),
			)
		}
	}
	return []report.Table{table}, nil
}

// quantileSorted returns the q-quantile of an ascending-sorted slice by
// nearest-rank lookup.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
