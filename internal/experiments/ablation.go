package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/simulator"
)

// runAblation evaluates the planner's design choices (docs/ARCHITECTURE.md,
// "Planning hot path") — Gauss-Hermite order, discount factor, ensemble size,
// budget-eligibility threshold, and the cost-model family — on one
// Scout-style job (a space small enough to sweep quickly). It is an addition
// of this reproduction, not a paper artifact, and complements the LA sweep of
// fig6.
func (s *Suite) runAblation() ([]report.Table, error) {
	jobs, err := s.scoutJobs()
	if err != nil {
		return nil, err
	}
	job := jobs[0]

	type variant struct {
		name   string
		params core.Params
	}
	base := core.Params{Lookahead: 1, Model: s.modelParams()}
	variants := []variant{
		{name: "default(la1,k3,g0.9,t10,p0.99)", params: base},
		{name: "gh-order=2", params: func() core.Params { p := base; p.GHOrder = 2; return p }()},
		{name: "gh-order=5", params: func() core.Params { p := base; p.GHOrder = 5; return p }()},
		{name: "discount=0", params: func() core.Params { p := base; p.NoDiscount = true; return p }()},
		{name: "discount=1", params: func() core.Params { p := base; p.Discount = 1; return p }()},
		{name: "trees=5", params: func() core.Params { p := base; p.Model.NumTrees = 5; return p }()},
		{name: "trees=20", params: func() core.Params { p := base; p.Model.NumTrees = 20; return p }()},
		{name: "eligibility=0.90", params: func() core.Params { p := base; p.EligibilityProb = 0.90; return p }()},
		{name: "model=gp", params: func() core.Params {
			p := base
			p.ModelFactory = model.NewGPFactory()
			return p
		}()},
	}

	table := report.Table{
		Title:   fmt.Sprintf("Ablation (job %s): Lynceus design choices", job.Name()),
		Columns: []string{"variant", "cno_avg", "cno_p90", "frac_optimal", "nex_avg"},
	}
	for _, v := range variants {
		lyn, err := core.New(v.params)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation variant %q: %w", v.name, err)
		}
		result, err := simulator.Evaluate(lyn, simulator.Config{
			Job:      job,
			Runs:     s.opts.Runs,
			BaseSeed: s.opts.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation variant %q: %w", v.name, err)
		}
		cno, err := result.CNOSummary()
		if err != nil {
			return nil, err
		}
		nex, err := result.NEXSummary()
		if err != nil {
			return nil, err
		}
		optimal := 0.0
		for _, run := range result.Runs {
			if run.CNO <= 1.0+1e-9 {
				optimal++
			}
		}
		optimal /= float64(len(result.Runs))
		table.AddRow(
			v.name,
			report.FormatFloat(cno.Mean, 3),
			report.FormatFloat(cno.P90, 3),
			report.FormatFloat(optimal, 3),
			report.FormatFloat(nex.Mean, 1),
		)
	}
	return []report.Table{table}, nil
}
