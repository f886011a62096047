// Command lynbench is the repo's end-to-end serving benchmark: it starts an
// in-process lynceus-serve on a real state dir, drives whole campaign
// lifecycles over loopback HTTP from a closed loop of two clients, and in a
// second, traced mode times the calls into each layer's public functions
// from outside. BENCHMARK.json at the repo root is rendered from this
// program's registry; benchmark/README.md explains the workloads and metrics.
//
// One run (the form BENCHMARK.json's command takes):
//
//	lynbench --workload W --seed N --seconds S --trace 0|1
//
// prints every metric by name with its unit and sample count, then, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. Other forms:
//
//	lynbench set               ten seeds per workload plus a traced run each
//	lynbench compare A B       two set files against the bounds
//	lynbench selfcheck         two sets of one build, compared
//	lynbench gate              the layer shares at ISSUE 11's campaign sizes
//	lynbench update-expected   regenerate benchmark/expected/
//	lynbench benchmark-json    print BENCHMARK.json
//
// Every form that runs a workload refuses a state dir in memory, where fsync
// is free; -state-root moves the state dirs, -allow-memfs forces the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Paths are relative to the repo root, where run.sh starts lynbench.
const (
	outDir      = "benchmark/out"      // trace files, sets, state dirs
	expectedDir = "benchmark/expected" // committed output digests
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lynbench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "set":
			return cmdSet(args[1:])
		case "compare":
			return cmdCompare(args[1:])
		case "selfcheck":
			return cmdSelfcheck(args[1:])
		case "gate":
			return cmdGate(args[1:])
		case "update-expected":
			return updateExpected(expectedDir)
		case "benchmark-json":
			_, err := os.Stdout.Write(benchmarkJSON())
			return err
		}
	}
	return cmdRun(args)
}

// stateFlags are the two flags of every form that runs a workload: where the
// server's state dirs go, and whether a state dir in memory is tolerated.
type stateFlags struct {
	root       string
	allowMemFS bool
}

func (s *stateFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&s.root, "state-root", outDir, "directory the server's state dirs are created under; put it on a disk")
	fs.BoolVar(&s.allowMemFS, "allow-memfs", false, "run even if the state dir is on tmpfs (stamps a warning into the result)")
}

// args passes the flags on to a child run.
func (s *stateFlags) args() []string {
	out := []string{"-state-root", s.root}
	if s.allowMemFS {
		out = append(out, "-allow-memfs")
	}
	return out
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("lynbench", flag.ContinueOnError)
	var (
		state  stateFlags
		name   = fs.String("workload", "", "workload to run (see benchmark-json)")
		seed   = fs.Int64("seed", defaultSeed, "seed every campaign, option and noise seed derives from")
		secs   = fs.Float64("seconds", runSeconds, "how long the run measures")
		trace  = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer replay")
		detail = fs.String("detail", "", "also write the full result (stamp, sample counts) to this file; how a set reads its runs back")
	)
	state.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := run(runConfig{
		w: w, seed: *seed, seconds: *secs, trace: *trace != 0,
		state: state, outDir: outDir, expectedDir: expectedDir,
	})
	if err != nil {
		return err
	}
	printResult(res)
	if *detail != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*detail, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printContractLine(res)
}

// cmdGate measures ROADMAP item 1's decision gate where ISSUE 11 put it: one
// traced run per workload at the issue's campaign sizes (see atIssueSize),
// whose step and restart budgets say which layer owns how much of a step.
// The committed digests are for the registry's sizes, so outputs are checked
// by replica agreement and sampled isolated runs.
func cmdGate(args []string) error {
	fs := flag.NewFlagSet("lynbench gate", flag.ContinueOnError)
	var state stateFlags
	state.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, w := range workloads {
		res, err := run(runConfig{
			w: w.atIssueSize(), seed: defaultSeed, seconds: runSeconds, trace: true,
			state: state, outDir: filepath.Join(outDir, "gate"),
		})
		if err != nil {
			return err
		}
		printResult(res)
		fmt.Println()
		if !res.Correct {
			return fmt.Errorf("gate: workload %s: outputs are wrong", w.name)
		}
	}
	return nil
}

// printResult prints the stamp and every metric with its unit and sample
// count.
func printResult(res *runResult) {
	st := res.Stamp
	fmt.Printf("workload %s  trace %v  seed %d\n", res.Workload, res.Trace, st.Seed)
	fmt.Printf("env: %s, nproc %d, GOMAXPROCS %d, commit %s, state dir on %s\n",
		st.GoVersion, st.NumCPU, st.GOMAXPROCS, st.Commit, st.StateFS)
	fmt.Printf("note: %s\n", st.Note)
	if st.Warning != "" {
		fmt.Printf("WARNING: %s\n", st.Warning)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("  %-34s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.N)
	}
	for _, line := range res.Info {
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("requests: %d attempted, %d failed (failed_share %.6f); outputs correct: %v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
}

// printContractLine prints the run's last line: exactly the keys correct,
// attempted, failed and metrics.
func printContractLine(res *runResult) error {
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, make(map[string]metricValue, len(res.Metrics))}
	for name, v := range res.Metrics {
		line.Metrics[name] = metricValue{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
