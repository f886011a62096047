// Command benchjson converts `go test -bench` output read from stdin into
// machine-readable JSON, so benchmark results can be tracked across PRs
// (the committed BENCH.json baseline) and emitted by CI without scraping
// free-form text. It also implements the CI bench-regression gate.
//
// Usage:
//
//	go test -run 'XXX' -bench . -benchtime 3x -count 3 . | go run ./cmd/benchjson -out BENCH.json
//	scripts/bench.sh                             # the wrapper used by CI
//	go run ./cmd/benchjson -compare BENCH.json -against fresh.json -threshold 20
//
// Every benchmark line becomes one record with the iteration count and a
// metric map keyed by unit ("ns/op", "ns/decision", "B/op", "allocs/op", ...).
// Repetitions of one benchmark (go test -count N) are merged into a single
// record carrying the per-metric median and runs=N — medians are what make
// the noisy single-run planner numbers comparable across PRs.
//
// With -compare, benchjson instead reads two reports and exits non-zero when
// a tracked metric regressed by more than -threshold percent: "ns/decision",
// "allocs/op" and "B/op" on every planner benchmark (any benchmark reporting
// ns/decision), "ns/campaign" plus the allocation metrics on the batch
// throughput benchmark (any benchmark reporting ns/campaign), and "ns/op",
// "allocs/op" and "B/op" on the BenchmarkEnsembleFitPredict /
// BenchmarkEnsembleRefitIncremental / BenchmarkEnsembleSpeculateOutcome
// cost-model microbenchmarks, and "allocs/op" and "B/op" (not ns/op) on the
// BenchmarkSnapshotRestore rows. A zero baseline for the allocation metrics acts as a
// ratchet: any fresh allocation on a path the baseline records as
// allocation-free is a regression regardless of the percent threshold. Each
// comparison line records the iteration counts (b.N) the two sides were
// averaged over, so a gate verdict based on too few iterations is visible at
// a glance. Benchmarks present in only one report are skipped, so adding or
// retiring benchmarks never trips the gate.
//
// Reports are tagged with the GOMAXPROCS the benchmarks ran under (parsed
// from the "-N" name suffix go test appends when GOMAXPROCS > 1) and the
// machine's core count, so a multi-core BENCH file is distinguishable from
// the single-core baseline at a glance; benchmark names are normalized with
// the suffix stripped so the same benchmark matches across reports recorded
// at different parallelism. The -multicore flag declares the intent of the
// run: when the machine (or GOMAXPROCS) could not actually execute the
// benchmarks in parallel, the report is stamped with a warning so the file
// itself says its scaling numbers are meaningless, and -compare warns
// whenever the two sides differ in GOMAXPROCS or core count or either
// carries such a stamp.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result, with repetitions of the same
// benchmark merged into per-metric medians.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path,
	// e.g. "BenchmarkPlannerLA2Tensorflow/refit=full/workers=1".
	Name string `json:"name"`
	// Pkg is the Go package the benchmark ran in.
	Pkg string `json:"pkg,omitempty"`
	// Iterations is the b.N the reported metrics were averaged over (the
	// median across runs when Runs > 1).
	Iterations int64 `json:"iterations"`
	// Runs is the number of `go test -count` repetitions merged into this
	// record; omitted when 1.
	Runs int `json:"runs,omitempty"`
	// Metrics maps a unit to its per-iteration value, e.g. "ns/op": 123.4 —
	// the median across runs when Runs > 1.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Gomaxprocs is the GOMAXPROCS the benchmarks ran under, parsed from
	// the "-N" suffix go test appends to benchmark names (1 when absent).
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
	// Cores is the logical core count of the machine benchjson converted the
	// results on (bench.sh runs the conversion on the bench machine).
	Cores int `json:"cores,omitempty"`
	// Warning marks a report whose numbers cannot mean what its name claims —
	// currently a -multicore conversion recorded on a single-core machine (or
	// with GOMAXPROCS pinned to 1). It is stamped into the JSON so the defect
	// travels with the file, and -compare repeats it for both sides.
	Warning    string      `json:"warning,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline report: compare -against it instead of converting stdin")
	against := flag.String("against", "", "fresh report compared to the -compare baseline")
	threshold := flag.Float64("threshold", 20, "maximum tolerated slowdown in percent for -compare")
	multicore := flag.Bool("multicore", false, "the input claims to be an all-cores run: annotate the report with a warning when the machine or GOMAXPROCS could not actually run it in parallel")
	flag.Parse()

	if *compare != "" {
		if *against == "" {
			return fmt.Errorf("-compare requires -against")
		}
		return compareReports(*compare, *against, *threshold)
	}

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		return err
	}
	report.Benchmarks = mergeRuns(report.Benchmarks)
	if *multicore {
		switch {
		case report.Cores <= 1:
			report.Warning = fmt.Sprintf("multicore report recorded on a %d-core machine: the parallel-scaling numbers are indistinguishable from the serial baseline", report.Cores)
		case report.Gomaxprocs <= 1:
			report.Warning = fmt.Sprintf("multicore report ran with GOMAXPROCS=1 on a %d-core machine: the benchmarks never executed in parallel", report.Cores)
		}
		if report.Warning != "" {
			fmt.Fprintln(os.Stderr, "benchjson: WARNING:", report.Warning)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// mergeRuns collapses repeated records of one benchmark (go test -count N)
// into a single record with per-metric medians, preserving first-seen order.
func mergeRuns(benchmarks []Benchmark) []Benchmark {
	order := make([]string, 0, len(benchmarks))
	groups := make(map[string][]Benchmark, len(benchmarks))
	for _, b := range benchmarks {
		key := b.Pkg + "\x00" + b.Name
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, key := range order {
		group := groups[key]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		merged := Benchmark{
			Name:    group[0].Name,
			Pkg:     group[0].Pkg,
			Runs:    len(group),
			Metrics: make(map[string]float64),
		}
		iters := make([]float64, len(group))
		units := map[string]bool{}
		for i, b := range group {
			iters[i] = float64(b.Iterations)
			for unit := range b.Metrics {
				units[unit] = true
			}
		}
		merged.Iterations = int64(median(iters))
		for unit := range units {
			values := make([]float64, 0, len(group))
			for _, b := range group {
				if v, ok := b.Metrics[unit]; ok {
					values = append(values, v)
				}
			}
			merged.Metrics[unit] = median(values)
		}
		out = append(out, merged)
	}
	return out
}

// median returns the middle value (mean of the two middles for even counts).
func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// trackedMetrics returns the regression-gated metric units of a benchmark:
// per-decision planning time plus allocation count and bytes per op on every
// planner benchmark (identified by reporting ns/decision — the planner hot
// path is where allocation creep turns into GC pauses mid-decision; gating
// B/op alongside allocs/op catches a path that allocates the same number of
// ever-fatter buffers), per-campaign wall time plus the allocation metrics on
// the batch throughput benchmark (identified by reporting ns/campaign), raw
// ns/op plus the same allocation metrics for the cost-model
// fit/sweep/refit/speculate microbenchmarks, and the allocation metrics
// alone for snapshot encoding and restore.
func trackedMetrics(b Benchmark) []string {
	units := make([]string, 0, 4)
	tracked := false
	if _, ok := b.Metrics["ns/decision"]; ok {
		units = append(units, "ns/decision")
		tracked = true
	}
	if _, ok := b.Metrics["ns/campaign"]; ok {
		units = append(units, "ns/campaign")
		tracked = true
	}
	if strings.HasPrefix(b.Name, "BenchmarkEnsembleFitPredict") ||
		strings.HasPrefix(b.Name, "BenchmarkEnsembleRefitIncremental") ||
		strings.HasPrefix(b.Name, "BenchmarkEnsembleSpeculateOutcome") {
		if _, ok := b.Metrics["ns/op"]; ok {
			units = append(units, "ns/op")
		}
		tracked = true
	}
	// Snapshot encoding and restore: only the deterministic allocation
	// metrics; their timing is left to paired runs.
	if strings.HasPrefix(b.Name, "BenchmarkSnapshotRestore") {
		tracked = true
	}
	if tracked {
		for _, unit := range []string{"allocs/op", "B/op"} {
			if _, ok := b.Metrics[unit]; ok {
				units = append(units, unit)
			}
		}
	}
	return units
}

// compareReports fails (non-nil error) when a tracked metric of the fresh
// report is more than threshold percent slower than the baseline.
func compareReports(basePath, freshPath string, threshold float64) error {
	var base, fresh Report
	for _, load := range []struct {
		path string
		into *Report
	}{{basePath, &base}, {freshPath, &fresh}} {
		data, err := os.ReadFile(load.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, load.into); err != nil {
			return fmt.Errorf("parsing %s: %w", load.path, err)
		}
	}
	// Key by (pkg, name) — the same identity mergeRuns dedups on — so
	// same-named benchmarks from different packages never collide.
	key := func(b Benchmark) string { return b.Pkg + "\x00" + b.Name }
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[key(b)] = b
	}
	// A comparison across different parallelism or hardware is not a like-for-
	// like comparison; say so loudly (both on stdout, next to the verdict
	// lines, and on stderr, which survives CI log folding) but still run the
	// gate — the caller chose the inputs.
	baseProcs, freshProcs := base.Gomaxprocs, fresh.Gomaxprocs
	if baseProcs == 0 {
		baseProcs = 1
	}
	if freshProcs == 0 {
		freshProcs = 1
	}
	warn := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		fmt.Println("WARNING:", msg)
		fmt.Fprintln(os.Stderr, "benchjson: WARNING:", msg)
	}
	if baseProcs != freshProcs {
		warn("comparing GOMAXPROCS=%d fresh results against a GOMAXPROCS=%d baseline — slowdown percentages conflate code changes with parallelism", freshProcs, baseProcs)
	}
	if base.Cores != 0 && fresh.Cores != 0 && base.Cores != fresh.Cores {
		warn("comparing a %d-core machine's results against a %d-core baseline — the reports were not recorded on comparable hardware", fresh.Cores, base.Cores)
	}
	if base.Warning != "" {
		warn("baseline %s carries a warning: %s", basePath, base.Warning)
	}
	if fresh.Warning != "" {
		warn("fresh report %s carries a warning: %s", freshPath, fresh.Warning)
	}
	regressions := 0
	for _, b := range fresh.Benchmarks {
		ref, ok := baseline[key(b)]
		if !ok {
			continue
		}
		for _, unit := range trackedMetrics(b) {
			refValue, ok := ref.Metrics[unit]
			if !ok {
				continue
			}
			if refValue <= 0 {
				// Time metrics with a zero baseline carry no signal, but a
				// zero allocation baseline is a ratchet: the path is recorded
				// as allocation-free, and any fresh allocation regresses it.
				if unit != "allocs/op" && unit != "B/op" {
					continue
				}
				status := "ok"
				if b.Metrics[unit] > 0 {
					status = "REGRESSION"
					regressions++
				}
				fmt.Printf("%-60s %-12s %14.0f -> %14.0f  ratchet  %s  (iters %d -> %d)\n",
					b.Name, unit, refValue, b.Metrics[unit], status, ref.Iterations, b.Iterations)
				continue
			}
			slowdown := (b.Metrics[unit]/refValue - 1) * 100
			status := "ok"
			if slowdown > threshold {
				status = "REGRESSION"
				regressions++
			}
			// The iteration counts record how many b.N iterations each side's
			// metric was averaged over — a verdict derived from N=1 runs
			// deserves less trust than one from N=30 runs, and restructuring
			// a benchmark to raise b.N shows up here.
			fmt.Printf("%-60s %-12s %14.0f -> %14.0f  %+6.1f%%  %s  (iters %d -> %d)\n",
				b.Name, unit, refValue, b.Metrics[unit], slowdown, status, ref.Iterations, b.Iterations)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d tracked metric(s) regressed more than %.0f%% against %s", regressions, threshold, basePath)
	}
	return nil
}

// procsSuffix matches the "-N" GOMAXPROCS suffix go test appends to
// benchmark names when GOMAXPROCS > 1.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// parse scans `go test -bench` output: context lines (goos:, goarch:, pkg:,
// cpu:) set the current environment, and lines starting with "Benchmark"
// followed by an iteration count and (value, unit) pairs become records.
// Everything else (PASS, ok, test logs) is ignored. GOMAXPROCS name suffixes
// are stripped into the report-level Gomaxprocs tag so the same benchmark
// keys identically across single- and multi-core reports.
func parse(sc *bufio.Scanner) (*Report, error) {
	report := &Report{Benchmarks: []Benchmark{}, Gomaxprocs: 1, Cores: runtime.NumCPU()}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name N value unit [value unit ...]".
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iterations, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if m := procsSuffix.FindStringSubmatch(name); m != nil {
			if procs, err := strconv.Atoi(m[1]); err == nil && procs > 1 {
				name = strings.TrimSuffix(name, m[0])
				report.Gomaxprocs = procs
			}
		}
		b := Benchmark{
			Name:       name,
			Pkg:        pkg,
			Iterations: iterations,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			value, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = value
		}
		report.Benchmarks = append(report.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading input: %w", err)
	}
	return report, nil
}
