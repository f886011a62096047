package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/lhs"
	"repro/internal/optimizer"
	"repro/internal/report"
	"repro/internal/simulator"
	"repro/internal/stat"
	"repro/internal/synth"
)

// tensorflowCloudDims are the indices of the cloud-related dimensions of the
// Tensorflow space (vm_type and total_vcpus), used by the disjoint
// optimization analysis.
var tensorflowCloudDims = []int{3, 4}

// runTable1 prints the hyper-parameter space of Table 1.
func (s *Suite) runTable1() ([]report.Table, error) {
	table := report.Table{
		Title:   "Table 1: hyper-parameters for training neural networks on Tensorflow",
		Columns: []string{"hyper-parameter", "values"},
	}
	for _, dim := range synth.TensorflowHyperParameters() {
		values := ""
		for i := range dim.Values {
			if i > 0 {
				values += " | "
			}
			values += dim.Label(i)
		}
		table.AddRow(dim.Name, values)
	}
	return []report.Table{table}, nil
}

// runTable2 prints the cluster compositions of Table 2.
func (s *Suite) runTable2() ([]report.Table, error) {
	table := report.Table{
		Title:   "Table 2: cloud configurations used for the Tensorflow jobs",
		Columns: []string{"vm_type", "#VMs"},
	}
	clusterTable := synth.TensorflowClusterTable()
	for _, vm := range sortedKeys(clusterTable) {
		counts := ""
		for i, c := range clusterTable[vm] {
			if i > 0 {
				counts += ", "
			}
			counts += report.FormatInt(c)
		}
		table.AddRow(vm, counts)
	}
	return []report.Table{table}, nil
}

// runFig1a reproduces Figure 1a: the cost of every configuration normalized
// by the optimum, sorted by quality, one series per Tensorflow job.
func (s *Suite) runFig1a() ([]report.Table, error) {
	jobs, err := s.tensorflowJobs()
	if err != nil {
		return nil, err
	}
	tables := make([]report.Table, 0, len(jobs)+1)

	summary := report.Table{
		Title:   "Figure 1a summary: cost spread and near-optimal configurations",
		Columns: []string{"job", "configs", "max_cno", "within_2x", "within_2x_pct", "timed_out"},
	}
	series := report.Table{
		Title:   "Figure 1a series: normalized cost by configuration rank (selected ranks)",
		Columns: []string{"rank"},
	}
	ranks := []int{1, 5, 10, 20, 50, 100, 150, 200, 250, 300, 350, 384}
	perJob := make([][]float64, 0, len(jobs))

	for _, job := range jobs {
		tmax, err := job.RuntimeForFeasibleFraction(0.5)
		if err != nil {
			return nil, err
		}
		normalized, err := job.NormalizedCosts(tmax)
		if err != nil {
			return nil, err
		}
		within2, err := job.CountWithinFactor(tmax, 2)
		if err != nil {
			return nil, err
		}
		timedOut := 0
		for _, m := range job.Measurements() {
			if m.TimedOut {
				timedOut++
			}
		}
		summary.AddRow(
			job.Name(),
			report.FormatInt(job.Size()),
			report.FormatFloat(normalized[len(normalized)-1], 1),
			report.FormatInt(within2),
			report.FormatFloat(100*float64(within2)/float64(job.Size()), 1),
			report.FormatInt(timedOut),
		)
		series.Columns = append(series.Columns, job.Name())
		perJob = append(perJob, normalized)
	}
	for _, rank := range ranks {
		row := []string{report.FormatInt(rank)}
		for _, normalized := range perJob {
			idx := rank - 1
			if idx >= len(normalized) {
				idx = len(normalized) - 1
			}
			row = append(row, report.FormatFloat(normalized[idx], 2))
		}
		series.AddRow(row...)
	}
	tables = append(tables, summary, series)
	return tables, nil
}

// runFig1b reproduces Figure 1b: the CDF of the CNO achieved by idealized
// disjoint optimization across all choices of the reference cloud
// configuration.
func (s *Suite) runFig1b() ([]report.Table, error) {
	jobs, err := s.tensorflowJobs()
	if err != nil {
		return nil, err
	}
	table := report.Table{
		Title:   "Figure 1b: CDF of the CNO of ideal disjoint optimization",
		Columns: []string{"cno<="},
	}
	thresholds := []float64{1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0}
	perJob := make([][]float64, 0, len(jobs))
	for _, job := range jobs {
		tmax, err := job.RuntimeForFeasibleFraction(0.5)
		if err != nil {
			return nil, err
		}
		results, err := baselines.Disjoint(job, tensorflowCloudDims, tmax)
		if err != nil {
			return nil, err
		}
		cnos := make([]float64, 0, len(results))
		for _, r := range results {
			cnos = append(cnos, r.CNO)
		}
		sort.Float64s(cnos)
		perJob = append(perJob, cnos)
		table.Columns = append(table.Columns, job.Name())
	}
	for _, th := range thresholds {
		row := []string{report.FormatFloat(th, 2)}
		for _, cnos := range perJob {
			frac, err := stat.FractionAtMost(cnos, th+1e-9)
			if err != nil {
				return nil, err
			}
			row = append(row, report.FormatFloat(frac, 3))
		}
		table.AddRow(row...)
	}
	return []report.Table{table}, nil
}

// fig4Optimizers builds the optimizers compared in Figure 4: Lynceus with the
// default lookahead, BO and RND.
func (s *Suite) fig4Optimizers() ([]optimizer.Optimizer, error) {
	lyn, err := s.lynceus(s.opts.Lookahead)
	if err != nil {
		return nil, err
	}
	bo := s.bo()
	return []optimizer.Optimizer{lyn, bo, baselines.NewRandom()}, nil
}

// runFig4 reproduces Figure 4: the CDFs of the CNO achieved by Lynceus, BO
// and RND on the Tensorflow jobs with the medium budget (b=3).
func (s *Suite) runFig4() ([]report.Table, error) {
	jobs, err := s.tensorflowJobs()
	if err != nil {
		return nil, err
	}
	opts, err := s.fig4Optimizers()
	if err != nil {
		return nil, err
	}
	tables := make([]report.Table, 0, 2*len(jobs))
	for _, job := range jobs {
		results := make([]simulator.JobResult, 0, len(opts))
		for _, opt := range opts {
			r, err := s.evaluate(opt, job, simulator.DefaultBudgetMultiplier)
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
		summary, err := summaryTable(fmt.Sprintf("Figure 4 (%s): CNO summary, medium budget", job.Name()), results)
		if err != nil {
			return nil, err
		}
		cdf, err := cdfTable(fmt.Sprintf("Figure 4 (%s): CDF of the CNO", job.Name()), results)
		if err != nil {
			return nil, err
		}
		tables = append(tables, summary, cdf)
	}
	return tables, nil
}

// runFig5 reproduces Figure 5: average, 50th and 90th percentile of the CNO
// across the Scout and the CherryPick jobs.
func (s *Suite) runFig5() ([]report.Table, error) {
	opts, err := s.fig4Optimizers()
	if err != nil {
		return nil, err
	}
	scout, err := s.scoutJobs()
	if err != nil {
		return nil, err
	}
	cherry, err := s.cherrypickJobs()
	if err != nil {
		return nil, err
	}

	table := report.Table{
		Title:   "Figure 5: CNO statistics across the Scout and CherryPick jobs (medium budget)",
		Columns: []string{"dataset", "optimizer", "jobs", "cno_avg", "cno_p50", "cno_p90", "cno_std", "nex_avg"},
	}
	groups := []struct {
		name string
		jobs []*dataset.Job
	}{
		{name: "scout", jobs: scout},
		{name: "cherrypick", jobs: cherry},
	}
	for _, group := range groups {
		for _, opt := range opts {
			cnos := make([]float64, 0)
			nexs := make([]float64, 0)
			for _, job := range group.jobs {
				r, err := s.evaluate(opt, job, simulator.DefaultBudgetMultiplier)
				if err != nil {
					return nil, err
				}
				cnos = append(cnos, r.CNOs()...)
				nexs = append(nexs, r.Explorations()...)
			}
			cnoSummary, err := stat.Summarize(cnos)
			if err != nil {
				return nil, err
			}
			nexSummary, err := stat.Summarize(nexs)
			if err != nil {
				return nil, err
			}
			table.AddRow(
				group.name,
				opt.Name(),
				report.FormatInt(len(group.jobs)),
				report.FormatFloat(cnoSummary.Mean, 3),
				report.FormatFloat(cnoSummary.P50, 3),
				report.FormatFloat(cnoSummary.P90, 3),
				report.FormatFloat(cnoSummary.StdDev, 3),
				report.FormatFloat(nexSummary.Mean, 1),
			)
		}
	}
	return []report.Table{table}, nil
}

// runFig6 reproduces Figure 6: the CDFs of the CNO achieved by Lynceus with
// LA = 0, 1 and 2 on the Tensorflow jobs.
func (s *Suite) runFig6() ([]report.Table, error) {
	jobs, err := s.tensorflowJobs()
	if err != nil {
		return nil, err
	}
	lookaheads := s.lookaheads()
	tables := make([]report.Table, 0, 2*len(jobs))
	for _, job := range jobs {
		results := make([]simulator.JobResult, 0, len(lookaheads))
		for _, la := range lookaheads {
			lyn, err := s.lynceus(la)
			if err != nil {
				return nil, err
			}
			r, err := s.evaluate(lyn, job, simulator.DefaultBudgetMultiplier)
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
		summary, err := summaryTable(fmt.Sprintf("Figure 6 (%s): CNO summary per lookahead", job.Name()), results)
		if err != nil {
			return nil, err
		}
		cdf, err := cdfTable(fmt.Sprintf("Figure 6 (%s): CDF of the CNO per lookahead", job.Name()), results)
		if err != nil {
			return nil, err
		}
		tables = append(tables, summary, cdf)
	}
	return tables, nil
}

// runFig7 reproduces Figure 7: the 90th percentile of the best-so-far CNO as
// a function of the number of explorations, for the CNN job.
func (s *Suite) runFig7() ([]report.Table, error) {
	jobs, err := s.tensorflowJobs()
	if err != nil {
		return nil, err
	}
	var cnn *dataset.Job
	for _, job := range jobs {
		if job.Name() == "cnn" {
			cnn = job
		}
	}
	if cnn == nil {
		// With TensorflowJobLimit the cnn job may be excluded; fall back to
		// the first available job so the experiment remains runnable at
		// reduced scale.
		cnn = jobs[0]
	}

	type series struct {
		name   string
		result simulator.JobResult
	}
	all := make([]series, 0, 4)
	for _, la := range s.lookaheads() {
		lyn, err := s.lynceus(la)
		if err != nil {
			return nil, err
		}
		r, err := s.evaluate(lyn, cnn, simulator.DefaultBudgetMultiplier)
		if err != nil {
			return nil, err
		}
		all = append(all, series{name: lyn.Name(), result: r})
	}
	bo := s.bo()
	rBO, err := s.evaluate(bo, cnn, simulator.DefaultBudgetMultiplier)
	if err != nil {
		return nil, err
	}
	all = append(all, series{name: bo.Name(), result: rBO})

	table := report.Table{
		Title:   "Figure 7 (cnn): 90th-percentile best-so-far CNO by exploration count",
		Columns: []string{"exploration"},
	}
	curves := make([][]float64, len(all))
	maxLen := 0
	for i, s := range all {
		curve, err := simulator.ConvergenceCurve(s.result, 90)
		if err != nil {
			return nil, err
		}
		curves[i] = curve
		if len(curve) > maxLen {
			maxLen = len(curve)
		}
		table.Columns = append(table.Columns, s.name)
	}
	for step := 13; step <= maxLen; step += 5 {
		row := []string{report.FormatInt(step)}
		for _, curve := range curves {
			idx := step - 1
			if idx >= len(curve) {
				idx = len(curve) - 1
			}
			v := curve[idx]
			if v >= math.MaxFloat64/2 {
				row = append(row, "inf")
			} else {
				row = append(row, report.FormatFloat(v, 2))
			}
		}
		table.AddRow(row...)
	}

	avgTable := report.Table{
		Title:   "Figure 7 (cnn): average number of explorations per optimizer",
		Columns: []string{"optimizer", "nex_avg"},
	}
	for _, s := range all {
		nex, err := s.result.NEXSummary()
		if err != nil {
			return nil, err
		}
		avgTable.AddRow(s.name, report.FormatFloat(nex.Mean, 1))
	}
	return []report.Table{table, avgTable}, nil
}

// budgetSweep evaluates Lynceus and BO under budgets b ∈ {1, 3, 5}.
func (s *Suite) budgetSweep() (map[string]map[float64][]simulator.JobResult, error) {
	jobs, err := s.tensorflowJobs()
	if err != nil {
		return nil, err
	}
	lyn, err := s.lynceus(s.opts.Lookahead)
	if err != nil {
		return nil, err
	}
	bo := s.bo()
	out := make(map[string]map[float64][]simulator.JobResult)
	for _, job := range jobs {
		out[job.Name()] = make(map[float64][]simulator.JobResult)
		for _, b := range s.budgetMultipliers() {
			for _, opt := range []optimizer.Optimizer{lyn, bo} {
				r, err := s.evaluate(opt, job, b)
				if err != nil {
					return nil, err
				}
				out[job.Name()][b] = append(out[job.Name()][b], r)
			}
		}
	}
	return out, nil
}

// runFig8 reproduces Figure 8: 90th percentile of the CNO as a function of
// the budget parameter b.
func (s *Suite) runFig8() ([]report.Table, error) {
	sweep, err := s.budgetSweep()
	if err != nil {
		return nil, err
	}
	table := report.Table{
		Title:   "Figure 8: 90th-percentile CNO vs budget (b)",
		Columns: []string{"job", "b", "lynceus_cno_p90", "bo_cno_p90"},
	}
	if err := addSweepRows(&table, sweep, s.budgetMultipliers(), func(r simulator.JobResult) (float64, error) {
		summary, err := r.CNOSummary()
		if err != nil {
			return 0, err
		}
		return summary.P90, nil
	}, 3); err != nil {
		return nil, err
	}
	return []report.Table{table}, nil
}

// runFig9 reproduces Figure 9: average number of explorations as a function
// of the budget parameter b.
func (s *Suite) runFig9() ([]report.Table, error) {
	sweep, err := s.budgetSweep()
	if err != nil {
		return nil, err
	}
	table := report.Table{
		Title:   "Figure 9: average NEX vs budget (b)",
		Columns: []string{"job", "b", "lynceus_nex_avg", "bo_nex_avg"},
	}
	if err := addSweepRows(&table, sweep, s.budgetMultipliers(), func(r simulator.JobResult) (float64, error) {
		summary, err := r.NEXSummary()
		if err != nil {
			return 0, err
		}
		return summary.Mean, nil
	}, 1); err != nil {
		return nil, err
	}
	return []report.Table{table}, nil
}

// addSweepRows renders a budget sweep into rows of (job, b, lynceus, bo).
func addSweepRows(table *report.Table, sweep map[string]map[float64][]simulator.JobResult, budgets []float64, metric func(simulator.JobResult) (float64, error), decimals int) error {
	jobNames := make([]string, 0, len(sweep))
	for name := range sweep {
		jobNames = append(jobNames, name)
	}
	sort.Strings(jobNames)
	for _, name := range jobNames {
		for _, b := range budgets {
			row := []string{name, report.FormatFloat(b, 0)}
			for _, r := range sweep[name][b] {
				v, err := metric(r)
				if err != nil {
					return err
				}
				row = append(row, report.FormatFloat(v, decimals))
			}
			table.AddRow(row...)
		}
	}
	return nil
}

// runTable3 reproduces Table 3: the average time needed to decide the next
// configuration, for BO and for Lynceus with LA = 1 and 2. The measurement
// divides the wall-clock time of whole optimization runs by the number of
// post-bootstrap decisions they made.
func (s *Suite) runTable3() ([]report.Table, error) {
	jobs, err := s.tensorflowJobs()
	if err != nil {
		return nil, err
	}
	job := jobs[0]

	bo := s.bo()
	la1, err := s.lynceus(1)
	if err != nil {
		return nil, err
	}
	la2, err := s.lynceus(2)
	if err != nil {
		return nil, err
	}

	table := report.Table{
		Title:   "Table 3: average seconds to compute the next configuration (Tensorflow space)",
		Columns: []string{"optimizer", "avg_seconds_to_next"},
	}
	for _, opt := range []optimizer.Optimizer{bo, la1, la2} {
		env, err := optimizer.NewJobEnvironment(job)
		if err != nil {
			return nil, err
		}
		tmax, err := job.RuntimeForFeasibleFraction(0.5)
		if err != nil {
			return nil, err
		}
		bootstrap, err := lhs.DefaultBootstrapSize(job.Space())
		if err != nil {
			return nil, err
		}
		runOpts := optimizer.Options{
			Budget:            float64(bootstrap) * job.MeanCost() * simulator.DefaultBudgetMultiplier,
			MaxRuntimeSeconds: tmax,
			Seed:              s.opts.Seed,
		}
		start := time.Now()
		res, err := opt.Optimize(env, runOpts)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		decisions := res.Explorations - bootstrap
		if decisions < 1 {
			decisions = 1
		}
		table.AddRow(opt.Name(), report.FormatFloat(elapsed/float64(decisions), 3))
	}
	return []report.Table{table}, nil
}
