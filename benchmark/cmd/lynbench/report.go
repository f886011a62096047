package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// summary is one end-to-end metric over the runs of a set: the median, the
// quartiles as Python's statistics.quantiles(values, n=4) gives them, and
// their distance as a share of the median.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// workloadSet is what a set recorded for one workload.
type workloadSet struct {
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer metrics            `json:"per_layer"`
	// Budgets are the traced run's step and restart budgets, as printed.
	Budgets   []string `json:"budgets"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Correct   bool     `json:"correct"`
}

// setFile is the recorded result of `lynbench set`: setRuns runs of
// runSeconds per workload, seeds from defaultSeed, and a traced run at
// defaultSeed. The sizes are constants so that any two sets compare.
type setFile struct {
	Stamp     stamp                   `json:"stamp"`
	Workloads map[string]*workloadSet `json:"workloads"`
	// Claim is null: a set records numbers, it claims no gain.
	Claim *string `json:"claim"`
}

// quartiles follows statistics.quantiles(values, n=4), method "exclusive".
func quartiles(values []float64) (q1, q3 float64) {
	data := append(sample(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n < 2 {
		if n == 1 {
			return data[0], data[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func summarize(unit string, values []float64, counts []int) summary {
	s := summary{Unit: unit, Values: values, Median: sample(values).median()}
	s.Q1, s.Q3 = quartiles(values)
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / s.Median
	}
	ns := make(sample, len(counts))
	for i, c := range counts {
		ns[i] = float64(c)
	}
	s.N = int(ns.median())
	return s
}

// runChild runs one workload in its own process (so peak RSS is the
// workload's own) and reads its full result back.
func runChild(w *workload, seed int64, trace bool, state stateFlags) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	detail := filepath.Join(outDir, fmt.Sprintf("detail-%d.json", os.Getpid()))
	defer os.Remove(detail)
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := append([]string{
		"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(runSeconds),
		"--trace", traceArg, "-detail", detail,
	}, state.args()...)
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %s: %w", w.name, seed, traceArg, err)
	}
	data, err := os.ReadFile(detail)
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// recordSet runs every workload setRuns times with tracing off, one seed
// each, and once traced at the first seed.
func recordSet(state stateFlags) (*setFile, error) {
	set := &setFile{Workloads: make(map[string]*workloadSet)}
	for _, w := range workloads {
		ws := &workloadSet{EndToEnd: make(map[string]summary), Correct: true}
		set.Workloads[w.name] = ws
		values := make(map[string][]float64)
		counts := make(map[string][]int)
		for i := 0; i < setRuns; i++ {
			seed := defaultSeed + int64(i)
			fmt.Fprintf(os.Stderr, "lynbench: %s seed %d (%d/%d)\n", w.name, seed, i+1, setRuns)
			res, err := runChild(w, seed, false, state)
			if err != nil {
				return nil, err
			}
			set.Stamp = res.Stamp
			set.Stamp.Seed = defaultSeed
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			ws.Correct = ws.Correct && res.Correct
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], res.Metrics[d.Name].Value)
				counts[d.Name] = append(counts[d.Name], res.Metrics[d.Name].N)
			}
		}
		for _, d := range endToEnd {
			ws.EndToEnd[d.Name] = summarize(d.Unit, values[d.Name], counts[d.Name])
		}
		fmt.Fprintf(os.Stderr, "lynbench: %s seed %d traced\n", w.name, defaultSeed)
		res, err := runChild(w, defaultSeed, true, state)
		if err != nil {
			return nil, err
		}
		ws.PerLayer, ws.Budgets = res.Metrics, res.Info
		ws.Attempted += res.Attempted
		ws.Failed += res.Failed
		ws.Correct = ws.Correct && res.Correct
	}
	return set, nil
}

func (set *setFile) print(w io.Writer) {
	st := set.Stamp
	fmt.Fprintf(w, "env: %s, nproc %d, GOMAXPROCS %d, commit %s, state dir on %s; %d runs of %gs per workload, seeds from %d\n",
		st.GoVersion, st.NumCPU, st.GOMAXPROCS, st.Commit, st.StateFS, setRuns, float64(runSeconds), defaultSeed)
	fmt.Fprintf(w, "note: %s\n", st.Note)
	if st.Warning != "" {
		fmt.Fprintf(w, "WARNING: %s\n", st.Warning)
	}
	for _, wl := range workloads {
		ws := set.Workloads[wl.name]
		if ws == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s: %d requests, %d failed (failed_share %.6f), outputs correct: %v\n",
			wl.name, ws.Attempted, ws.Failed, float64(ws.Failed)/float64(max(ws.Attempted, 1)), ws.Correct)
		fmt.Fprintf(w, "  %-34s %12s %-6s %12s %12s %8s %8s\n", "end to end", "median", "unit", "q1", "q3", "spread", "n")
		for _, d := range endToEnd {
			s := ws.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-34s %12.4f %-6s %12.4f %12.4f %7.1f%% %8d\n", d.Name, s.Median, s.Unit, s.Q1, s.Q3, 100*s.Spread, s.N)
		}
		fmt.Fprintf(w, "  %-34s %12s %-6s %8s\n", "per layer (traced run)", "value", "unit", "n")
		for _, d := range perLayer {
			v := ws.PerLayer[d.Name]
			fmt.Fprintf(w, "  %-34s %12.4f %-6s %8d\n", d.Name, v.Value, v.Unit, v.N)
		}
		for _, line := range ws.Budgets {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}

func writeSet(path string, set *setFile) error {
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set setFile
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// setPath is where `lynbench set` writes its set.
var setPath = filepath.Join(outDir, "set.json")

func cmdSet(args []string) error {
	fs := flag.NewFlagSet("lynbench set", flag.ContinueOnError)
	var state stateFlags
	state.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, err := recordSet(state)
	if err != nil {
		return err
	}
	set.print(os.Stdout)
	if err := writeSet(setPath, set); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (\"claim\": null)\n", setPath)
	return nil
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse b is than a, as a share of a; negative is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) >= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// compareSets prints, per workload and end-to-end metric, both medians, the
// change, the bound and a verdict: worse when B's median is worse than A's by
// more than the bound; unresolved when the run-to-run spread is wider than
// the bound (unless every run of B beats every run of A); ok otherwise. It
// returns the number of worse and unresolved pairings.
func compareSets(w io.Writer, a, b *setFile) (worse, unresolved int) {
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %7s %8s  %s\n", "workload", "metric", "A", "B", "change", "bound", "spread", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			change := worseBy(d, sa.Median, sb.Median)
			spread := max(sa.Spread, sb.Spread)
			verdict := verdictOK
			switch {
			case change > d.Bound:
				verdict = verdictWorse
				worse++
			case spread > d.Bound && !allBetter(d, sa.Values, sb.Values):
				verdict = verdictUnresolved
				unresolved++
			}
			fmt.Fprintf(w, "%-16s %-18s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.name, d.Name, sa.Median, sb.Median, 100*change, 100*d.Bound, 100*spread, verdict)
		}
		// The recommendations' quality is a pure function of the seed, so its
		// bound is 0: any worsening is a regression, whatever the timing says.
		qa, qb := wa.PerLayer[qualityMetric].Value, wb.PerLayer[qualityMetric].Value
		verdict := verdictOK
		if qb > qa {
			verdict = verdictWorse
			worse++
		}
		fmt.Fprintf(w, "%-16s %-18s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%%  %s\n",
			wl.name, qualityMetric, qa, qb, 100*worseBy(metricDef{Better: lower}, qa, qb), 0.0, 0.0, verdict)
		if wa.Failed != 0 || wb.Failed != 0 || !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "%-16s %-18s %12d %12d %37s\n", wl.name, "failed requests", wa.Failed, wb.Failed, verdictWorse)
			worse++
		}
	}
	fmt.Fprintln(w, "change: how much worse B's median is than A's (negative: better); spread: the wider interquartile range of the two, as a share of the median")
	return worse, unresolved
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: lynbench compare A.json B.json")
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	worse, unresolved := compareSets(os.Stdout, a, b)
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d pairings are worse than their bound allows", worse)
	}
	return nil
}

// qualityMetric is the paper's CNO over a workload's recommendations.
const qualityMetric = "quality.cno_mean"

// exactCounts must repeat exactly between two sets of one build: they are
// pure functions of the seed.
var exactCounts = []string{"core.decisions", "core.trials", "env.runs", "core.snapshot_bytes_max", qualityMetric}

// cmdSelfcheck is the repeatability criterion: two sets of the same build
// must agree within the benchmark's own bounds, every spread (set-up time
// aside) must stay within its bound, and the exact counts must repeat.
func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("lynbench selfcheck", flag.ContinueOnError)
	var state stateFlags
	state.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sets [2]*setFile
	for i := range sets {
		set, err := recordSet(state)
		if err != nil {
			return err
		}
		sets[i] = set
		path := filepath.Join(outDir, fmt.Sprintf("selfcheck-%c.json", 'a'+i))
		if err := writeSet(path, set); err != nil {
			return err
		}
		set.print(os.Stdout)
		fmt.Printf("\nwrote %s\n\n", path)
	}
	worse, _ := compareSets(os.Stdout, sets[0], sets[1])
	var problems []string
	if worse > 0 {
		problems = append(problems, fmt.Sprintf("%d pairings differ by more than their bound", worse))
	}
	for _, wl := range workloads {
		for i, set := range sets {
			ws := set.Workloads[wl.name]
			for _, d := range endToEnd {
				if s := ws.EndToEnd[d.Name]; d.Name != "setup_s" && s.Spread > d.Bound {
					problems = append(problems, fmt.Sprintf("%s %s: spread %.1f%% of set %c exceeds the bound %.0f%%",
						wl.name, d.Name, 100*s.Spread, 'A'+i, 100*d.Bound))
				}
			}
		}
		la, lb := sets[0].Workloads[wl.name].PerLayer, sets[1].Workloads[wl.name].PerLayer
		for _, name := range exactCounts {
			if la[name].Value != lb[name].Value {
				problems = append(problems, fmt.Sprintf("%s %s did not repeat: %v then %v", wl.name, name, la[name].Value, lb[name].Value))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println("selfcheck passed: two sets of one build agree within the bounds")
	return nil
}
