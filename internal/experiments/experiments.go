// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.1 and §6) against the synthetic datasets: each experiment is
// identified by the paper artifact it reproduces (fig1a, fig1b, tab1, tab2,
// fig4, fig5, fig6, fig7, fig8, fig9, tab3) and produces one or more result
// tables with the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bagging"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/optimizer"
	"repro/internal/report"
	"repro/internal/simulator"
	"repro/internal/synth"
)

// Options scales the experiment campaign. The defaults are sized for a
// laptop-scale run; the paper's full scale (≥100 runs per cell) is reached by
// raising Runs.
type Options struct {
	// Runs is the number of optimization runs per (job, optimizer, budget)
	// cell; 0 falls back to 10.
	Runs int
	// Seed is the base seed of the whole campaign; run i of every cell uses
	// Seed+i so all optimizers share bootstrap samples.
	Seed int64
	// DatasetSeed seeds the synthetic dataset generators; 0 falls back to 42.
	DatasetSeed int64
	// ScoutJobLimit bounds how many of the 18 Scout jobs are evaluated
	// (0 = all); useful to keep quick campaigns cheap.
	ScoutJobLimit int
	// CherryPickJobLimit bounds how many of the 5 CherryPick jobs are
	// evaluated (0 = all).
	CherryPickJobLimit int
	// TensorflowJobLimit bounds how many of the 3 Tensorflow jobs are
	// evaluated (0 = all); used by the bench-scale regeneration targets.
	TensorflowJobLimit int
	// ServesimProfileLimit bounds how many of the 3 serving profiles the
	// servesim experiment evaluates (0 = all).
	ServesimProfileLimit int
	// Lookaheads lists the lookahead windows swept by fig6/fig7
	// (nil = paper's {0, 1, 2}).
	Lookaheads []int
	// BudgetMultipliers lists the budget parameters swept by fig8/fig9
	// (nil = paper's {1, 3, 5}).
	BudgetMultipliers []float64
	// Lookahead is the lookahead window of the "full" Lynceus configuration;
	// 0 falls back to the paper default (LA=2).
	Lookahead int
	// EnsembleTrees overrides the bagging ensemble size (0 = paper's 10).
	EnsembleTrees int
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 10
	}
	if o.DatasetSeed == 0 {
		o.DatasetSeed = 42
	}
	if o.Lookahead == 0 {
		o.Lookahead = core.DefaultLookahead
	}
	return o
}

// Experiment couples a paper artifact with the function that regenerates it.
type Experiment struct {
	// ID is the artifact identifier, e.g. "fig4" or "tab3".
	ID string
	// Title describes the artifact.
	Title string
	run   func(s *Suite) ([]report.Table, error)
}

// Suite runs experiments, caching per-(job, optimizer, budget) evaluation
// results so that experiments sharing cells (e.g. fig4, fig6 and fig7) do not
// repeat the expensive optimization runs within one process.
type Suite struct {
	opts Options

	mu      sync.Mutex
	cache   map[string]simulator.JobResult
	tfJobs  []*dataset.Job
	tfError error
	tfOnce  sync.Once
}

// NewSuite creates a Suite with the given options.
func NewSuite(opts Options) *Suite {
	return &Suite{opts: opts.withDefaults(), cache: make(map[string]simulator.JobResult)}
}

// Options returns the normalized options of the suite.
func (s *Suite) Options() Options { return s.opts }

// All returns the experiments in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "tab1", Title: "Table 1: hyper-parameters of the Tensorflow jobs", run: (*Suite).runTable1},
		{ID: "tab2", Title: "Table 2: cloud configurations of the Tensorflow jobs", run: (*Suite).runTable2},
		{ID: "fig1a", Title: "Figure 1a: normalized cost of every configuration (Tensorflow jobs)", run: (*Suite).runFig1a},
		{ID: "fig1b", Title: "Figure 1b: CDF of the CNO achieved by ideal disjoint optimization", run: (*Suite).runFig1b},
		{ID: "fig4", Title: "Figure 4: CDF of the CNO of Lynceus, BO and RND (Tensorflow jobs, medium budget)", run: (*Suite).runFig4},
		{ID: "fig5", Title: "Figure 5: CNO statistics on the Scout and CherryPick jobs", run: (*Suite).runFig5},
		{ID: "fig6", Title: "Figure 6: CDF of the CNO of Lynceus with LA=0,1,2", run: (*Suite).runFig6},
		{ID: "fig7", Title: "Figure 7: 90th-percentile CNO vs number of explorations (CNN)", run: (*Suite).runFig7},
		{ID: "fig8", Title: "Figure 8: 90th-percentile CNO vs budget", run: (*Suite).runFig8},
		{ID: "fig9", Title: "Figure 9: average NEX vs budget", run: (*Suite).runFig9},
		{ID: "tab3", Title: "Table 3: average time to compute the next configuration", run: (*Suite).runTable3},
		{ID: "ablation", Title: "Ablation: Lynceus design choices (reproduction addition, not a paper artifact)", run: (*Suite).runAblation},
		{ID: "servesim", Title: "Serving-cluster tuning under observation noise (reproduction addition, not a paper artifact)", run: (*Suite).runServesim},
	}
}

// IDs returns the identifiers of every experiment.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// Run executes the experiment with the given ID.
func (s *Suite) Run(id string) ([]report.Table, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.run(s)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
}

// tensorflowJobs lazily generates (and caches) the three Tensorflow jobs.
func (s *Suite) tensorflowJobs() ([]*dataset.Job, error) {
	s.tfOnce.Do(func() {
		s.tfJobs, s.tfError = synth.TensorflowJobs(s.opts.DatasetSeed)
	})
	if s.tfError != nil {
		return nil, s.tfError
	}
	jobs := s.tfJobs
	if s.opts.TensorflowJobLimit > 0 && s.opts.TensorflowJobLimit < len(jobs) {
		jobs = jobs[:s.opts.TensorflowJobLimit]
	}
	return jobs, nil
}

// lookaheads returns the lookahead windows swept by fig6 and fig7.
func (s *Suite) lookaheads() []int {
	if len(s.opts.Lookaheads) > 0 {
		return s.opts.Lookaheads
	}
	return []int{0, 1, 2}
}

// budgetMultipliers returns the budget parameters swept by fig8 and fig9.
func (s *Suite) budgetMultipliers() []float64 {
	if len(s.opts.BudgetMultipliers) > 0 {
		return s.opts.BudgetMultipliers
	}
	return []float64{1, 3, 5}
}

// modelParams returns the bagging configuration shared by every optimizer.
func (s *Suite) modelParams() bagging.Params {
	return bagging.Params{NumTrees: s.opts.EnsembleTrees}
}

// lynceus builds a Lynceus optimizer with the given lookahead.
func (s *Suite) lynceus(lookahead int) (optimizer.Optimizer, error) {
	return core.New(core.Params{Lookahead: lookahead, Model: s.modelParams()})
}

// bo builds the BO baseline.
func (s *Suite) bo() optimizer.Optimizer {
	return baselines.NewBO(baselines.BOParams{Model: s.modelParams()})
}

// evaluate runs (or returns the cached result of) one optimizer on one job
// with the given budget multiplier.
func (s *Suite) evaluate(opt optimizer.Optimizer, job *dataset.Job, budgetMultiplier float64) (simulator.JobResult, error) {
	key := fmt.Sprintf("%s|%s|b=%g|runs=%d|seed=%d", job.Name(), opt.Name(), budgetMultiplier, s.opts.Runs, s.opts.Seed)
	s.mu.Lock()
	cached, ok := s.cache[key]
	s.mu.Unlock()
	if ok {
		return cached, nil
	}

	result, err := simulator.Evaluate(opt, simulator.Config{
		Job:              job,
		Runs:             s.opts.Runs,
		BudgetMultiplier: budgetMultiplier,
		BaseSeed:         s.opts.Seed,
	})
	if err != nil {
		return simulator.JobResult{}, err
	}
	s.mu.Lock()
	s.cache[key] = result
	s.mu.Unlock()
	return result, nil
}

// scoutJobs returns the (possibly limited) Scout jobs.
func (s *Suite) scoutJobs() ([]*dataset.Job, error) {
	jobs, err := synth.ScoutJobs(s.opts.DatasetSeed)
	if err != nil {
		return nil, err
	}
	if s.opts.ScoutJobLimit > 0 && s.opts.ScoutJobLimit < len(jobs) {
		jobs = jobs[:s.opts.ScoutJobLimit]
	}
	return jobs, nil
}

// cherrypickJobs returns the (possibly limited) CherryPick jobs.
func (s *Suite) cherrypickJobs() ([]*dataset.Job, error) {
	jobs, err := synth.CherryPickJobs(s.opts.DatasetSeed)
	if err != nil {
		return nil, err
	}
	if s.opts.CherryPickJobLimit > 0 && s.opts.CherryPickJobLimit < len(jobs) {
		jobs = jobs[:s.opts.CherryPickJobLimit]
	}
	return jobs, nil
}

// cdfTable renders the CNO distributions of several optimizers on a common
// grid of CNO thresholds, mirroring the CDF plots of the paper.
func cdfTable(title string, results []simulator.JobResult) (report.Table, error) {
	thresholds := []float64{1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0}
	table := report.Table{Title: title, Columns: []string{"cno<="}}
	for _, r := range results {
		table.Columns = append(table.Columns, r.OptimizerName)
	}
	for _, th := range thresholds {
		row := []string{report.FormatFloat(th, 2)}
		for _, r := range results {
			frac := 0.0
			cnos := r.CNOs()
			for _, v := range cnos {
				if v <= th+1e-9 {
					frac++
				}
			}
			if len(cnos) > 0 {
				frac /= float64(len(cnos))
			}
			row = append(row, report.FormatFloat(frac, 3))
		}
		table.AddRow(row...)
	}
	return table, nil
}

// summaryTable renders per-optimizer CNO and NEX statistics.
func summaryTable(title string, results []simulator.JobResult) (report.Table, error) {
	table := report.Table{
		Title: title,
		Columns: []string{
			"optimizer", "runs", "cno_avg", "cno_p50", "cno_p90", "cno_p95",
			"frac_optimal", "nex_avg", "spent_avg",
		},
	}
	for _, r := range results {
		cno, err := r.CNOSummary()
		if err != nil {
			return report.Table{}, err
		}
		nex, err := r.NEXSummary()
		if err != nil {
			return report.Table{}, err
		}
		optimal := 0.0
		spent := 0.0
		for _, run := range r.Runs {
			if run.CNO <= 1.0+1e-9 {
				optimal++
			}
			spent += run.SpentBudget
		}
		optimal /= float64(len(r.Runs))
		spent /= float64(len(r.Runs))
		table.AddRow(
			r.OptimizerName,
			report.FormatInt(cno.Count),
			report.FormatFloat(cno.Mean, 3),
			report.FormatFloat(cno.P50, 3),
			report.FormatFloat(cno.P90, 3),
			report.FormatFloat(cno.P95, 3),
			report.FormatFloat(optimal, 3),
			report.FormatFloat(nex.Mean, 1),
			report.FormatFloat(spent, 3),
		)
	}
	return table, nil
}

// sortedKeys returns the keys of a map in sorted order (used for stable
// output of map-backed tables).
func sortedKeys(m map[string][]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
