package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload at quick() size in both modes and checks what
// the registry promises: every declared metric is emitted exactly once, the
// output check passes, no request fails, and spans nest.
func TestSmoke(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			defs := endToEnd
			if trace {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := run(runConfig{
					w: w.quick(), seed: 7, seconds: 0.3, trace: trace,
					state: stateFlags{root: t.TempDir(), allowMemFS: true}, outDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d requests failed: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
				}
				if res.Claim != nil {
					t.Fatalf("the benchmark claims %q; it must claim nothing", *res.Claim)
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("declared metric %s was not emitted", d.Name)
					}
					if v.Unit != d.Unit {
						t.Errorf("%s emitted in %q, declared in %q", d.Name, v.Unit, d.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v; it must never be 0", d.Name, v.Value)
					}
				}
				if !trace {
					return
				}
				if len(res.spans) == 0 {
					t.Fatal("the traced run recorded no spans")
				}
				if err := checkNesting(res.spans); err != nil {
					t.Fatal(err)
				}
				if len(res.Info) != 2 || !strings.HasPrefix(res.Info[0], "step budget") || !strings.HasPrefix(res.Info[1], "restart budget") {
					t.Errorf("budgets printed: %q; want a step budget and a restart budget", res.Info)
				}
				seen := make(map[string]bool)
				for _, sp := range res.spans {
					seen[sp.Name] = true
				}
				for _, want := range []string{
					"campaign", "http.step", "env.run", "serve.build_env", "core.start", "serve.put_spec",
					"core.step", "core.snapshot", "serve.put_snapshot", "core.result", "serve.remove",
					"serve.store_specs", "serve.store_snapshot", "core.resume", "core.resume_first_step",
				} {
					if !seen[want] {
						t.Errorf("no %s span was recorded", want)
					}
				}
				if got := res.Metrics["serve.rejected"].Value + res.Metrics["serve.contained_failures"].Value; got != 0 {
					t.Errorf("%v requests were rejected or contained; want 0", got)
				}
			})
		}
	}
}

// TestIssueSizeRunsToBudget runs the gate's variant of the cheapest workload:
// the budget must end its campaigns, past the registry's cap, and the outputs
// must still check.
func TestIssueSizeRunsToBudget(t *testing.T) {
	t.Parallel()
	capped := workloadByName("servesim-myopic")
	res, err := run(runConfig{
		w: capped.atIssueSize(), seed: 7, seconds: 0.3,
		state: stateFlags{root: t.TempDir(), allowMemFS: true}, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct %v, %d requests failed: %v", res.Correct, res.Failed, res.Problems)
	}
	steps, campaigns := res.Metrics["steps_per_s"].N, res.Metrics["lifecycle_s_p50"].N
	if steps <= campaigns*capped.maxSteps() {
		t.Errorf("%d steps in %d campaigns; a budget-bound campaign must outlast the cap of %d", steps, campaigns, capped.maxSteps())
	}
}

// TestCompareGatesQuality checks that a worse CNO alone fails a comparison.
func TestCompareGatesQuality(t *testing.T) {
	set := func(cno float64) *setFile {
		return &setFile{Workloads: map[string]*workloadSet{"distinct": {
			EndToEnd: map[string]summary{}, PerLayer: metrics{qualityMetric: {Value: cno}}, Correct: true,
		}}}
	}
	if worse, _ := compareSets(io.Discard, set(1.1), set(1.1)); worse != 0 {
		t.Errorf("equal sets compare as %d worse", worse)
	}
	if worse, _ := compareSets(io.Discard, set(1.1), set(1.2)); worse != 1 {
		t.Errorf("a worse %s compares as %d worse, want 1", qualityMetric, worse)
	}
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the harness's
// registry from drifting, and the registry inside the benchmark contract.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the registry; run: benchmark/run.sh benchmark-json > BENCHMARK.json")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics are outside the contract's limits", len(workloads), len(endToEnd), len(perLayer))
	}
	names := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		use(d.Name)
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
	}
}

// TestExpectedOutputsCommitted checks that every workload's digests for the
// default seed are committed and complete.
func TestExpectedOutputsCommitted(t *testing.T) {
	for _, w := range workloads {
		expected, err := loadExpected("../../expected", w)
		if err != nil {
			t.Fatal(err)
		}
		if len(expected) != w.expectedCampaigns {
			t.Errorf("%s: %d campaigns pinned, want %d; run: benchmark/run.sh update-expected", w.name, len(expected), w.expectedCampaigns)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 1, 7})
	if q1 != 1 || q3 != 10 {
		t.Errorf("quartiles of {10, 1, 7} = %v, %v; want 1, 10", q1, q3)
	}
}
