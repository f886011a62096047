package main

import (
	"bufio"
	"io"
	"os"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkPlannerLA2Tensorflow/workers=1         	       3	5731596844 ns/op	 260527109 ns/decision
BenchmarkEnsembleFitPredict                     	       3	    360295 ns/op
some test log line
PASS
ok  	repro	46.914s
`
	report, err := parse(bufio.NewScanner(strings.NewReader(input)))
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if report.Goos != "linux" || report.Goarch != "amd64" {
		t.Errorf("environment = %q/%q, want linux/amd64", report.Goos, report.Goarch)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(report.Benchmarks))
	}
	first := report.Benchmarks[0]
	if first.Name != "BenchmarkPlannerLA2Tensorflow/workers=1" || first.Pkg != "repro" || first.Iterations != 3 {
		t.Errorf("unexpected first record: %+v", first)
	}
	if first.Metrics["ns/op"] != 5731596844 || first.Metrics["ns/decision"] != 260527109 {
		t.Errorf("unexpected first metrics: %+v", first.Metrics)
	}
	second := report.Benchmarks[1]
	if second.Name != "BenchmarkEnsembleFitPredict" || second.Metrics["ns/op"] != 360295 {
		t.Errorf("unexpected second record: %+v", second)
	}
}

func TestMergeRunsEmitsMedians(t *testing.T) {
	input := `pkg: repro
BenchmarkPlannerLA2Tensorflow/refit=full/workers=1 	       1	5000000000 ns/op	 250000000 ns/decision
BenchmarkPlannerLA2Tensorflow/refit=full/workers=1 	       1	5200000000 ns/op	 260000000 ns/decision
BenchmarkPlannerLA2Tensorflow/refit=full/workers=1 	       1	9900000000 ns/op	 400000000 ns/decision
BenchmarkEnsembleFitPredict 	    3000	    360295 ns/op
`
	report, err := parse(bufio.NewScanner(strings.NewReader(input)))
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	merged := mergeRuns(report.Benchmarks)
	if len(merged) != 2 {
		t.Fatalf("merged %d records, want 2", len(merged))
	}
	planner := merged[0]
	if planner.Runs != 3 {
		t.Errorf("runs = %d, want 3", planner.Runs)
	}
	// The median must shrug off the 400ms outlier run.
	if planner.Metrics["ns/decision"] != 260000000 {
		t.Errorf("median ns/decision = %v, want 260000000", planner.Metrics["ns/decision"])
	}
	if planner.Metrics["ns/op"] != 5200000000 {
		t.Errorf("median ns/op = %v, want 5200000000", planner.Metrics["ns/op"])
	}
	single := merged[1]
	if single.Runs != 0 || single.Metrics["ns/op"] != 360295 {
		t.Errorf("single-run record altered: %+v", single)
	}
}

func TestCompareReportsFlagsTrackedRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		return path
	}
	base := write("base.json", `{"benchmarks": [
		{"name": "BenchmarkPlannerLA2Tensorflow/refit=full/workers=1", "iterations": 1, "metrics": {"ns/decision": 100, "ns/op": 1000}},
		{"name": "BenchmarkEnsembleFitPredict", "iterations": 100, "metrics": {"ns/op": 100}},
		{"name": "BenchmarkFullSpaceSweep/batch", "iterations": 100, "metrics": {"ns/op": 100}},
		{"name": "BenchmarkRetired", "iterations": 1, "metrics": {"ns/decision": 1}}
	]}`)

	// Within threshold, untracked ns/op blowups ignored, retired/new
	// benchmarks skipped: must pass.
	pass := write("pass.json", `{"benchmarks": [
		{"name": "BenchmarkPlannerLA2Tensorflow/refit=full/workers=1", "iterations": 1, "metrics": {"ns/decision": 115, "ns/op": 99000}},
		{"name": "BenchmarkEnsembleFitPredict", "iterations": 100, "metrics": {"ns/op": 110}},
		{"name": "BenchmarkFullSpaceSweep/batch", "iterations": 100, "metrics": {"ns/op": 900}},
		{"name": "BenchmarkBrandNew", "iterations": 1, "metrics": {"ns/decision": 999}}
	]}`)
	if err := compareReports(base, pass, 20); err != nil {
		t.Fatalf("compareReports flagged a passing run: %v", err)
	}

	// ns/decision regression beyond threshold must fail.
	slowPlanner := write("slow_planner.json", `{"benchmarks": [
		{"name": "BenchmarkPlannerLA2Tensorflow/refit=full/workers=1", "iterations": 1, "metrics": {"ns/decision": 130}}
	]}`)
	if err := compareReports(base, slowPlanner, 20); err == nil {
		t.Fatal("compareReports passed a >20%% ns/decision regression")
	}

	// EnsembleFitPredict ns/op regression beyond threshold must fail.
	slowFit := write("slow_fit.json", `{"benchmarks": [
		{"name": "BenchmarkEnsembleFitPredict", "iterations": 100, "metrics": {"ns/op": 130}}
	]}`)
	if err := compareReports(base, slowFit, 20); err == nil {
		t.Fatal("compareReports passed a >20%% EnsembleFitPredict regression")
	}
}

// TestCompareReportsGatesPlannerAllocations pins the allocation gate: on
// planner benchmarks (those reporting ns/decision) and the tracked
// cost-model microbenchmarks, allocs/op and B/op are tracked metrics and a
// >threshold growth fails the comparison even when the timing stayed flat.
// Other benchmarks remain exempt — their allocation counts are not gated.
func TestCompareReportsGatesPlannerAllocations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		return path
	}
	base := write("base.json", `{"benchmarks": [
		{"name": "BenchmarkPlannerLA3Tensorflow/workers=8", "iterations": 6, "metrics": {"ns/decision": 100, "allocs/op": 1000, "B/op": 50000}},
		{"name": "BenchmarkFullSpaceSweep/batch", "iterations": 100, "metrics": {"ns/op": 100, "allocs/op": 10}}
	]}`)

	// Flat timing, allocation growth within threshold, untracked-benchmark
	// allocation blowup ignored: must pass.
	pass := write("pass.json", `{"benchmarks": [
		{"name": "BenchmarkPlannerLA3Tensorflow/workers=8", "iterations": 6, "metrics": {"ns/decision": 101, "allocs/op": 1100, "B/op": 55000}},
		{"name": "BenchmarkFullSpaceSweep/batch", "iterations": 100, "metrics": {"ns/op": 100, "allocs/op": 500}}
	]}`)
	if err := compareReports(base, pass, 20); err != nil {
		t.Fatalf("compareReports flagged a passing run: %v", err)
	}

	// Flat timing but >20% allocation growth on a planner benchmark: fail.
	leaky := write("leaky.json", `{"benchmarks": [
		{"name": "BenchmarkPlannerLA3Tensorflow/workers=8", "iterations": 6, "metrics": {"ns/decision": 100, "allocs/op": 1300}}
	]}`)
	if err := compareReports(base, leaky, 20); err == nil {
		t.Fatal("compareReports passed a >20%% allocs/op regression on a planner benchmark")
	}

	// Flat timing and flat allocation count but >20% B/op growth: fail.
	fat := write("fat.json", `{"benchmarks": [
		{"name": "BenchmarkPlannerLA3Tensorflow/workers=8", "iterations": 6, "metrics": {"ns/decision": 100, "allocs/op": 1000, "B/op": 70000}}
	]}`)
	if err := compareReports(base, fat, 20); err == nil {
		t.Fatal("compareReports passed a >20%% B/op regression on a planner benchmark")
	}
}

// TestCompareReportsGatesSnapshotAllocations: the snapshot/restore rows are
// gated on allocs/op and B/op only. A +25 % allocs/op on op=restore fails the
// gate; a doubled ns/op alone does not.
func TestCompareReportsGatesSnapshotAllocations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		return path
	}
	base := write("base.json", `{"benchmarks": [
		{"name": "BenchmarkSnapshotRestore/op=snapshot", "pkg": "repro/internal/core", "iterations": 3, "metrics": {"ns/op": 79430, "allocs/op": 65, "B/op": 14866}},
		{"name": "BenchmarkSnapshotRestore/op=restore", "pkg": "repro/internal/core", "iterations": 3, "metrics": {"ns/op": 153494, "allocs/op": 284, "B/op": 31161}}
	]}`)
	slow := write("slow.json", `{"benchmarks": [
		{"name": "BenchmarkSnapshotRestore/op=snapshot", "pkg": "repro/internal/core", "iterations": 3, "metrics": {"ns/op": 158860, "allocs/op": 67, "B/op": 15010}},
		{"name": "BenchmarkSnapshotRestore/op=restore", "pkg": "repro/internal/core", "iterations": 3, "metrics": {"ns/op": 306988, "allocs/op": 284, "B/op": 31208}}
	]}`)
	if err := compareReports(base, slow, 20); err != nil {
		t.Fatalf("compareReports gated a snapshot row on ns/op: %v", err)
	}
	leaky := write("leaky.json", `{"benchmarks": [
		{"name": "BenchmarkSnapshotRestore/op=restore", "pkg": "repro/internal/core", "iterations": 3, "metrics": {"ns/op": 153494, "allocs/op": 355, "B/op": 31161}}
	]}`)
	if err := compareReports(base, leaky, 20); err == nil {
		t.Fatal("compareReports passed a +25%% allocs/op regression on op=restore")
	}
}

// TestCompareReportsRatchetsZeroAllocationBaselines pins the ratchet: once
// the baseline records a tracked benchmark as allocation-free, any fresh
// allocation fails the gate regardless of the percent threshold (a percent
// of zero is meaningless), while staying at zero passes.
func TestCompareReportsRatchetsZeroAllocationBaselines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		return path
	}
	base := write("base.json", `{"benchmarks": [
		{"name": "BenchmarkEnsembleFitPredict", "iterations": 100, "metrics": {"ns/op": 100, "allocs/op": 0, "B/op": 9}}
	]}`)
	clean := write("clean.json", `{"benchmarks": [
		{"name": "BenchmarkEnsembleFitPredict", "iterations": 100, "metrics": {"ns/op": 105, "allocs/op": 0, "B/op": 9}}
	]}`)
	if err := compareReports(base, clean, 20); err != nil {
		t.Fatalf("compareReports flagged an allocation-free run: %v", err)
	}
	dirty := write("dirty.json", `{"benchmarks": [
		{"name": "BenchmarkEnsembleFitPredict", "iterations": 100, "metrics": {"ns/op": 100, "allocs/op": 3, "B/op": 9}}
	]}`)
	if err := compareReports(base, dirty, 1000); err == nil {
		t.Fatal("compareReports passed allocations on a zero-alloc baseline")
	}
}

// TestParseStripsGomaxprocsSuffix checks that the "-N" suffix go test
// appends under GOMAXPROCS > 1 is normalized off the benchmark name and
// surfaced as the report-level tag, so multi-core reports key identically to
// the single-core baseline.
func TestParseStripsGomaxprocsSuffix(t *testing.T) {
	input := `pkg: repro
BenchmarkPlannerLA2Tensorflow/refit=full/workers=4-8 	       3	5731596844 ns/op
BenchmarkEnsembleFitPredict-8                     	       3	    360295 ns/op
`
	report, err := parse(bufio.NewScanner(strings.NewReader(input)))
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if report.Gomaxprocs != 8 {
		t.Errorf("Gomaxprocs = %d, want 8", report.Gomaxprocs)
	}
	if report.Cores < 1 {
		t.Errorf("Cores = %d, want >= 1", report.Cores)
	}
	want := []string{"BenchmarkPlannerLA2Tensorflow/refit=full/workers=4", "BenchmarkEnsembleFitPredict"}
	for i, b := range report.Benchmarks {
		if b.Name != want[i] {
			t.Errorf("benchmark %d name = %q, want %q", i, b.Name, want[i])
		}
	}
}

func TestParseIgnoresMalformedLines(t *testing.T) {
	input := `Benchmark       notanumber	12 ns/op
BenchmarkOdd	3	12
`
	report, err := parse(bufio.NewScanner(strings.NewReader(input)))
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if len(report.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from malformed input, want 0", len(report.Benchmarks))
	}
}

// TestCompareReportsMarksIncomparableIterations pins the iteration-count
// check with the shapes CI compares: a baseline recorded at the default
// benchtime against a 3x smoke run. A row whose two sides were averaged over
// iteration counts more than ten times apart has its time metrics printed as
// incomparable and never judged — a blown-up time does not fail the gate,
// and a flat one does not pass as "ok" — while its allocs/op and B/op are
// judged as always, the zero-baseline ratchet included. Rows within the
// factor are judged in full.
func TestCompareReportsMarksIncomparableIterations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		return path
	}
	base := write("base.json", `{"benchmarks": [
		{"name": "BenchmarkEnsembleRefitIncremental", "iterations": 237639, "metrics": {"ns/op": 100, "allocs/op": 0, "B/op": 0}},
		{"name": "BenchmarkPlannerLA2Tensorflow/refit=incremental/workers=1", "iterations": 171, "metrics": {"ns/decision": 100, "allocs/op": 10, "B/op": 1000}},
		{"name": "BenchmarkPlannerLA2Tensorflow/refit=full/workers=1", "iterations": 3, "metrics": {"ns/decision": 100, "allocs/op": 10}}
	]}`)
	fresh := write("fresh.json", `{"benchmarks": [
		{"name": "BenchmarkEnsembleRefitIncremental", "iterations": 3, "metrics": {"ns/op": 500, "allocs/op": 0, "B/op": 0}},
		{"name": "BenchmarkPlannerLA2Tensorflow/refit=incremental/workers=1", "iterations": 3, "metrics": {"ns/decision": 500, "allocs/op": 10, "B/op": 1000}},
		{"name": "BenchmarkPlannerLA2Tensorflow/refit=full/workers=1", "iterations": 30, "metrics": {"ns/decision": 105, "allocs/op": 10}}
	]}`)

	out, err := captureStdout(t, func() error { return compareReports(base, fresh, 20) })
	if err != nil {
		t.Fatalf("compareReports judged an incomparable time metric: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		far := !strings.HasPrefix(line, "BenchmarkPlannerLA2Tensorflow/refit=full")
		timeMetric := strings.Contains(line, "ns/op") || strings.Contains(line, "ns/decision")
		incomparable := strings.Contains(line, "incomparable")
		if incomparable != (far && timeMetric) {
			t.Errorf("line %q: incomparable = %v", line, incomparable)
		}
		if incomparable && (strings.Contains(line, " ok") || strings.Contains(line, "REGRESSION")) {
			t.Errorf("line %q carries a verdict", line)
		}
		if !incomparable && !strings.Contains(line, " ok") {
			t.Errorf("line %q carries no ok verdict", line)
		}
	}
	if n := strings.Count(out, "incomparable"); n != 2 {
		t.Errorf("%d incomparable lines, want one per far row's time metric (2):\n%s", n, out)
	}

	// Allocation metrics stay gated however far apart the counts are.
	for _, tc := range []struct{ name, row string }{
		{"ratchet", `{"name": "BenchmarkEnsembleRefitIncremental", "iterations": 3, "metrics": {"ns/op": 100, "allocs/op": 4, "B/op": 0}}`},
		{"percent", `{"name": "BenchmarkPlannerLA2Tensorflow/refit=incremental/workers=1", "iterations": 3, "metrics": {"ns/decision": 100, "allocs/op": 13, "B/op": 1000}}`},
	} {
		regressed := write(tc.name+".json", `{"benchmarks": [`+tc.row+`]}`)
		out, err := captureStdout(t, func() error { return compareReports(base, regressed, 20) })
		if err == nil || !strings.Contains(out, "REGRESSION") {
			t.Errorf("%s: compareReports passed an allocation regression across iteration counts far apart:\n%s", tc.name, out)
		}
	}

	// Ten times apart is still comparable: the time regression fails the gate.
	tenfold := write("tenfold.json", `{"benchmarks": [
		{"name": "BenchmarkEnsembleRefitIncremental", "iterations": 23764, "metrics": {"ns/op": 500, "allocs/op": 0, "B/op": 0}}
	]}`)
	if _, err := captureStdout(t, func() error { return compareReports(base, tenfold, 20) }); err == nil {
		t.Error("compareReports passed a regression on iteration counts ten times apart")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("Pipe: %v", err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	os.Stdout = saved
	w.Close()
	return <-done, ferr
}
