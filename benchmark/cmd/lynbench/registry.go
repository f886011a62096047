package main

import (
	"encoding/json"
	"math"

	"repro/internal/serve"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

// loadClients is the closed loop's client count. A campaign admits one step
// at a time and a tuning client waits for its trial before asking for the
// next, so the loop is closed; two clients match the reference box's two
// cores (run.sh pins GOMAXPROCS to the same number).
const loadClients = 2

// setRuns is how many runs of a workload, one seed each, a recorded set holds.
const setRuns = 10

// planWindow is how many of a campaign's first and last decisions the
// early/late planning means cover.
const planWindow = 8

// workload is one traffic mix. The table below is the only place sizes live.
type workload struct {
	name string
	why  string
	// kind is the serve.EnvSpec kind ("tensorflow" or "servesim"); envName
	// its job or profile.
	kind, envName string
	// groups is the number of distinct option seeds campaigns cycle through:
	// campaign i belongs to group i%groups, and campaigns of one group are
	// bitwise replicas. 0 gives every campaign its own group.
	groups int
	tuner  serve.TunerSpec
	// bootstrap is the explicit bootstrap_size, which lets the client tell
	// bootstrap steps from decision steps.
	bootstrap int
	// decisions caps a campaign at bootstrap+decisions steps, after which the
	// client takes the recommendation so far; 0 is no cap, the budget then ends
	// the campaign. budgetFactor scales the budget: factor x bootstrap x mean
	// run cost. The table's 4 is ample for every cap in it, so every campaign
	// of a workload has the same length whatever its seed, and the time to
	// recommendation is comparable across seeds.
	decisions    int
	budgetFactor float64
	// warmLeaders runs one campaign per group to completion during set-up,
	// so the measured campaigns adopt every decision from the share caches.
	warmLeaders bool
	// resumeAfter is how many decisions a mid-flight campaign has taken when
	// it is restarted: the restart load's state dir and every replay's
	// restart probe hold campaigns at bootstrap+resumeAfter steps.
	resumeAfter int
	// restartCampaigns > 0 selects the restart load: a state dir of that
	// many mid-flight campaigns, restarted and stepped once per cycle.
	restartCampaigns int
	// setUps is how many times a run sets the workload up; it reports the
	// median. Short set-ups are repeated more, long ones are steadier.
	setUps int
	// replayCampaigns is how many campaigns the single-threaded layer replay
	// runs; expectedCampaigns how many groups have committed digests.
	replayCampaigns   int
	expectedCampaigns int
}

// maxSteps is how far a campaign of the workload is ever stepped. Restart
// campaigns stop one step after the restart.
func (w *workload) maxSteps() int {
	if w.restartCampaigns > 0 {
		return w.resumeStep() + 1
	}
	if w.decisions == 0 {
		return math.MaxInt
	}
	return w.bootstrap + w.decisions
}

// resumeStep is the index of the first step after a restart.
func (w *workload) resumeStep() int { return w.bootstrap + w.resumeAfter }

func (w *workload) group(i int) int {
	if w.groups == 0 {
		return i
	}
	return i % w.groups
}

var la2 = serve.TunerSpec{Lookahead: 2, SpeculativeRefit: "incremental"}

// workloads is the registry of traffic mixes. They are ROADMAP item 1's
// mixes: guessed, not taken from production traffic.
var workloads = []*workload{
	{
		name: "distinct",
		why:  "Tensorflow-384 LA=2 campaigns, each its own option seed: every decision is planned, so the core planner and the model kernel own the step; durability, transport and the share caches almost none.",
		kind: "tensorflow", envName: "cnn", tuner: la2,
		bootstrap: 12, decisions: 20, budgetFactor: 4, setUps: 3, resumeAfter: 8,
		replayCampaigns: 2, expectedCampaigns: 16,
	},
	{
		name: "replicas",
		why:  "Replicas of two Tensorflow-384 LA=2 campaigns whose leaders ran during set-up: every decision is adopted, so snapshot encoding, fsync+rename, share lookups and HTTP own the step; bypasses the planner.",
		kind: "tensorflow", envName: "cnn", groups: 2, tuner: la2,
		bootstrap: 12, decisions: 20, budgetFactor: 4, warmLeaders: true, setUps: 2, resumeAfter: 8,
		replayCampaigns: 8, expectedCampaigns: 2,
	},
	{
		name: "servesim-myopic",
		why:  "servesim batch-profile myopic (LA=0) campaigns with the SLO constraint, distinct env and option seeds: environment simulation, two root fits, EnvState snapshots and fsync each own a visible share.",
		kind: "servesim", envName: "batch", tuner: serve.TunerSpec{Myopic: true},
		bootstrap: 16, decisions: 24, budgetFactor: 4, setUps: 3, resumeAfter: 8,
		replayCampaigns: 12, expectedCampaigns: 192,
	},
	{
		name: "restart",
		why:  "A state dir of 24 mid-flight LA=2 campaigns with distinct seeds is reopened, rescanned and resumed, then stepped once per campaign on a cold planner: the read side of the snapshot/store layer.",
		kind: "tensorflow", envName: "cnn", tuner: la2,
		bootstrap: 12, budgetFactor: 4, restartCampaigns: 24, setUps: 2, resumeAfter: 2,
		replayCampaigns: 8, expectedCampaigns: 24,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// atIssueSize returns the workload at the sizes ISSUE 11 sketched, which a
// time-bound run cannot hold steady across seeds: campaigns run until their
// budget of 3 x bootstrap x mean run cost ends them (~66 steps on
// Tensorflow-384), and the restart dir holds 128 campaigns, 4 seeds x 32
// replicas, at bootstrap+8. `lynbench gate` measures the layer shares there,
// because snapshot bytes and planning time grow with a campaign's history.
func (w *workload) atIssueSize() *workload {
	q := *w
	q.decisions, q.budgetFactor, q.setUps = 0, 3, 1
	if q.restartCampaigns > 0 {
		q.restartCampaigns, q.groups, q.resumeAfter = 128, 4, 8
	}
	return &q
}

// quick returns the small variant the smoke test runs: three decisions per
// campaign with a one-step lookahead, four restart campaigns, a short replay.
// It never feeds BENCHMARK.json.
func (w *workload) quick() *workload {
	q := *w
	q.decisions = 3
	q.setUps = 1
	q.resumeAfter = 1
	if q.tuner.Lookahead > 1 {
		q.tuner.Lookahead = 1
	}
	if q.restartCampaigns > 0 {
		q.restartCampaigns = 4
	}
	q.replayCampaigns = max(2, q.groups+1)
	return &q
}

// metricDef declares one metric: BENCHMARK.json's entry for it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a client of the server sees, measured with tracing off.
// Every workload emits every one of them. Bounds are regression limits as a
// share of the parent's median.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"steps_per_s", "1/s", higher, 0.25},
	{"step_ms_p50", "ms", lower, 0.25},
	{"step_ms_p90", "ms", lower, 0.25},
	{"lifecycle_s_p50", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer is measured by the traced run and the layer replay. The prefix of
// a name is the module it belongs to.
var perLayer = []metricDef{
	{Name: "serve.http_overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.boot_step_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.put_snapshot_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.put_snapshot_ms_p90", Unit: "ms", Better: lower},
	{Name: "serve.put_spec_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.remove_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.build_env_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.store_scan_ms", Unit: "ms", Better: lower},
	{Name: "serve.new_ms_per_campaign", Unit: "ms", Better: lower},
	{Name: "serve.drain_close_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.limiter_allow_ns", Unit: "ns", Better: lower},
	{Name: "serve.state_bytes_per_campaign", Unit: "bytes", Better: lower},
	{Name: "serve.steps_completed", Unit: "count", Better: higher},
	{Name: "serve.rejected", Unit: "count", Better: lower},
	{Name: "serve.contained_failures", Unit: "count", Better: lower},
	{Name: "core.start_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.step_boot_us_p50", Unit: "us", Better: lower},
	{Name: "core.step_plan_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.step_plan_ms_p90", Unit: "ms", Better: lower},
	{Name: "core.step_plan_ms_early", Unit: "ms", Better: lower},
	{Name: "core.step_plan_ms_late", Unit: "ms", Better: lower},
	{Name: "core.step_adopt_us_p50", Unit: "us", Better: lower},
	{Name: "core.snapshot_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.snapshot_bytes_p50", Unit: "bytes", Better: lower},
	{Name: "core.snapshot_bytes_max", Unit: "bytes", Better: lower},
	{Name: "core.resume_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.resume_first_step_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.result_us_p50", Unit: "us", Better: lower},
	{Name: "core.decisions", Unit: "count", Better: lower},
	{Name: "core.trials", Unit: "count", Better: lower},
	{Name: "share.adopt_ratio", Unit: "ratio", Better: higher},
	{Name: "share.first_intern_ms", Unit: "ms", Better: lower},
	{Name: "model.fit_us_p50", Unit: "us", Better: lower},
	{Name: "model.predict_batch_us_p50", Unit: "us", Better: lower},
	{Name: "model.clone_update_us_p50", Unit: "us", Better: lower},
	{Name: "env.run_us_p50", Unit: "us", Better: lower},
	{Name: "env.run_us_p90", Unit: "us", Better: lower},
	{Name: "env.runs", Unit: "count", Better: lower},
	{Name: "servesim.env_state_bytes", Unit: "bytes", Better: lower},
	{Name: "proc.cpu_ms_per_step", Unit: "ms", Better: lower},
	{Name: "proc.alloc_kb_per_step", Unit: "KB", Better: lower},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "trace.spans", Unit: "count", Better: lower},
	{Name: "trace.http_step_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.replay_step_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.budget_residual_ms", Unit: "ms", Better: lower},
	{Name: "quality.cno_mean", Unit: "ratio", Better: lower},
}

// benchmarkJSON renders BENCHMARK.json from the registry, so the file and
// the harness cannot drift (the smoke test compares them).
func benchmarkJSON() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDef{w.name, w.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return append(data, '\n')
}
