package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/simulator"
)

// quickSuite returns a suite sized to run in test time: a single run per
// cell, a single Scout and CherryPick job, lookahead 1 and a small ensemble.
func quickSuite() *Suite {
	return NewSuite(Options{
		Runs:               1,
		Seed:               3,
		ScoutJobLimit:      1,
		CherryPickJobLimit: 1,
		Lookahead:          1,
		EnsembleTrees:      5,
	})
}

func TestIDsAndRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"tab1", "tab2", "fig1a", "fig1b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "tab3", "ablation", "servesim"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	found := make(map[string]bool)
	for _, id := range ids {
		found[id] = true
	}
	for _, w := range want {
		if !found[w] {
			t.Errorf("missing experiment %q", w)
		}
	}
	for _, e := range All() {
		if e.Title == "" {
			t.Errorf("experiment %q has no title", e.ID)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := quickSuite().Run("fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	s := NewSuite(Options{})
	if s.Options().Runs != 10 {
		t.Errorf("default runs = %d", s.Options().Runs)
	}
	if s.Options().DatasetSeed != 42 {
		t.Errorf("default dataset seed = %d", s.Options().DatasetSeed)
	}
	if s.Options().Lookahead != 2 {
		t.Errorf("default lookahead = %d", s.Options().Lookahead)
	}
}

func TestStaticTables(t *testing.T) {
	s := quickSuite()
	for _, id := range []string{"tab1", "tab2"} {
		tables, err := s.Run(id)
		if err != nil {
			t.Fatalf("Run(%s) error: %v", id, err)
		}
		if len(tables) != 1 || len(tables[0].Rows) == 0 {
			t.Errorf("%s produced %d tables", id, len(tables))
		}
	}
	tab1, err := s.Run("tab1")
	if err != nil {
		t.Fatalf("Run(tab1) error: %v", err)
	}
	var sb strings.Builder
	if err := tab1[0].WriteASCII(&sb); err != nil {
		t.Fatalf("WriteASCII error: %v", err)
	}
	for _, want := range []string{"learning_rate", "batch_size", "sync"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("tab1 missing %q", want)
		}
	}
}

func TestFig1aAndFig1b(t *testing.T) {
	s := quickSuite()
	tables, err := s.Run("fig1a")
	if err != nil {
		t.Fatalf("Run(fig1a) error: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig1a tables = %d, want 2 (summary + series)", len(tables))
	}
	if len(tables[0].Rows) != 3 {
		t.Errorf("fig1a summary rows = %d, want 3 jobs", len(tables[0].Rows))
	}

	tables, err = s.Run("fig1b")
	if err != nil {
		t.Fatalf("Run(fig1b) error: %v", err)
	}
	if len(tables) != 1 {
		t.Fatalf("fig1b tables = %d", len(tables))
	}
	// CDF values must be non-decreasing down the threshold rows for every job.
	for col := 1; col < len(tables[0].Columns); col++ {
		prev := -1.0
		for _, row := range tables[0].Rows {
			v := parseFloat(t, row[col])
			if v < prev-1e-9 {
				t.Errorf("fig1b column %d not monotone", col)
			}
			prev = v
		}
	}
}

func TestFig5QuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping optimization-heavy experiment in -short mode")
	}
	s := quickSuite()
	tables, err := s.Run("fig5")
	if err != nil {
		t.Fatalf("Run(fig5) error: %v", err)
	}
	if len(tables) != 1 {
		t.Fatalf("fig5 tables = %d", len(tables))
	}
	// 2 datasets × 3 optimizers = 6 rows.
	if len(tables[0].Rows) != 6 {
		t.Errorf("fig5 rows = %d, want 6", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if cno := parseFloat(t, row[3]); cno < 1-1e-9 {
			t.Errorf("average CNO %v below 1 in row %v", cno, row)
		}
	}
}

func TestAblationQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping optimization-heavy experiment in -short mode")
	}
	s := quickSuite()
	tables, err := s.Run("ablation")
	if err != nil {
		t.Fatalf("Run(ablation) error: %v", err)
	}
	if len(tables) != 1 {
		t.Fatalf("ablation tables = %d", len(tables))
	}
	if len(tables[0].Rows) != 9 {
		t.Errorf("ablation rows = %d, want 9 variants", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if cno := parseFloat(t, row[1]); cno < 1-1e-9 {
			t.Errorf("variant %q average CNO %v below 1", row[0], cno)
		}
	}
}

func TestServesimQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping optimization-heavy experiment in -short mode")
	}
	s := NewSuite(Options{
		Runs:                 1,
		Seed:                 3,
		ServesimProfileLimit: 1,
		EnsembleTrees:        5,
	})
	tables, err := s.Run("servesim")
	if err != nil {
		t.Fatalf("Run(servesim) error: %v", err)
	}
	if len(tables) != 1 {
		t.Fatalf("servesim tables = %d", len(tables))
	}
	// 1 profile × 3 optimizers = 3 rows.
	if len(tables[0].Rows) != 3 {
		t.Errorf("servesim rows = %d, want 3", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		// Unlike the lookup-table experiments, CNO can dip slightly below 1
		// here: under observation noise the tuner may recommend a
		// configuration whose ground-truth makespan violates the constraint
		// the analytic optimum respects. Assert sanity, not a lower bound.
		if cno := parseFloat(t, row[3]); cno <= 0 {
			t.Errorf("non-positive average CNO %v in row %v", cno, row)
		}
	}
}

func TestEvaluateCachesResults(t *testing.T) {
	s := quickSuite()
	jobs, err := s.scoutJobs()
	if err != nil {
		t.Fatalf("scoutJobs error: %v", err)
	}
	bo := s.bo()
	first, err := s.evaluate(bo, jobs[0], simulator.DefaultBudgetMultiplier)
	if err != nil {
		t.Fatalf("evaluate error: %v", err)
	}
	if len(s.cache) != 1 {
		t.Errorf("cache size = %d, want 1", len(s.cache))
	}
	second, err := s.evaluate(bo, jobs[0], simulator.DefaultBudgetMultiplier)
	if err != nil {
		t.Fatalf("evaluate error: %v", err)
	}
	if len(s.cache) != 1 {
		t.Errorf("cache size after repeat = %d, want 1", len(s.cache))
	}
	if len(first.Runs) != len(second.Runs) || first.Runs[0].CNO != second.Runs[0].CNO {
		t.Error("cached result differs from the original")
	}
}

func TestAddSweepRows(t *testing.T) {
	sweep := map[string]map[float64][]simulator.JobResult{
		"cnn": {
			1: {
				{OptimizerName: "lynceus-la2", Runs: []simulator.RunMetrics{{CNO: 1.0, Explorations: 20}}},
				{OptimizerName: "bo", Runs: []simulator.RunMetrics{{CNO: 2.0, Explorations: 15}}},
			},
			3: {
				{OptimizerName: "lynceus-la2", Runs: []simulator.RunMetrics{{CNO: 1.0, Explorations: 60}}},
				{OptimizerName: "bo", Runs: []simulator.RunMetrics{{CNO: 1.5, Explorations: 30}}},
			},
		},
	}
	table := report.Table{Columns: []string{"job", "b", "lynceus", "bo"}}
	err := addSweepRows(&table, sweep, []float64{1, 3}, func(r simulator.JobResult) (float64, error) {
		s, err := r.NEXSummary()
		if err != nil {
			return 0, err
		}
		return s.Mean, nil
	}, 1)
	if err != nil {
		t.Fatalf("addSweepRows error: %v", err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one per budget)", len(table.Rows))
	}
	if table.Rows[0][0] != "cnn" || table.Rows[0][1] != "1" {
		t.Errorf("first row = %v", table.Rows[0])
	}
	if table.Rows[0][2] != "20.0" || table.Rows[0][3] != "15.0" {
		t.Errorf("first row metrics = %v", table.Rows[0])
	}
	if table.Rows[1][2] != "60.0" || table.Rows[1][3] != "30.0" {
		t.Errorf("second row metrics = %v", table.Rows[1])
	}
}

func TestSummaryAndCDFTables(t *testing.T) {
	results := []simulator.JobResult{
		{
			OptimizerName: "a",
			Runs: []simulator.RunMetrics{
				{CNO: 1.0, Explorations: 10, SpentBudget: 1},
				{CNO: 2.0, Explorations: 20, SpentBudget: 2},
			},
		},
		{
			OptimizerName: "b",
			Runs: []simulator.RunMetrics{
				{CNO: 3.0, Explorations: 5, SpentBudget: 3},
				{CNO: 5.0, Explorations: 7, SpentBudget: 4},
			},
		},
	}
	summary, err := summaryTable("t", results)
	if err != nil {
		t.Fatalf("summaryTable error: %v", err)
	}
	if len(summary.Rows) != 2 {
		t.Fatalf("summary rows = %d", len(summary.Rows))
	}
	if summary.Rows[0][0] != "a" || summary.Rows[1][0] != "b" {
		t.Errorf("summary row order: %v", summary.Rows)
	}
	// Optimizer a found the optimum in 1 of 2 runs.
	if summary.Rows[0][6] != "0.500" {
		t.Errorf("frac_optimal = %q, want 0.500", summary.Rows[0][6])
	}

	cdf, err := cdfTable("t", results)
	if err != nil {
		t.Fatalf("cdfTable error: %v", err)
	}
	if len(cdf.Columns) != 3 {
		t.Errorf("cdf columns = %v", cdf.Columns)
	}
	// At threshold 1.0 optimizer a has 0.5 of its runs, b has 0.
	if cdf.Rows[0][1] != "0.500" || cdf.Rows[0][2] != "0.000" {
		t.Errorf("cdf first row = %v", cdf.Rows[0])
	}
	// At threshold 5.0 both reach 1.
	last := cdf.Rows[len(cdf.Rows)-1]
	if last[1] != "1.000" || last[2] != "1.000" {
		t.Errorf("cdf last row = %v", last)
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}
