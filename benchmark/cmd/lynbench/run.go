package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// processStart anchors the first set-up's time at process start.
var processStart = time.Now()

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// state says where state dirs live; outDir receives the trace file;
	// expectedDir holds the committed digests ("" skips them).
	state               stateFlags
	outDir, expectedDir string
}

// runResult is what one run reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Stamp     stamp    `json:"stamp"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Info holds figures that are printed but not part of the registry.
	Info    []string `json:"info,omitempty"`
	Metrics metrics  `json:"metrics"`
	// Claim is null: defining the benchmark claims no gain.
	Claim *string `json:"claim"`

	spans []span
}

func run(cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.state.root, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.state.root, cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	st, err := newStamp(root, cfg.seed, cfg.state.allowMemFS)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: cfg.w.name, Trace: cfg.trace, Stamp: st, Metrics: metrics{}}
	if cfg.trace {
		err = runTraced(cfg, root, res)
	} else {
		err = runUntraced(cfg, root, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	// A wrong output is a failed operation too.
	res.Failed += int64(len(res.Problems))
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.w.name, d.Name)
		}
		v.Unit = d.Unit
		res.Metrics[d.Name] = v
	}
	if len(res.Metrics) != len(defs) {
		return nil, fmt.Errorf("workload %s measured %d metrics, registry declares %d", cfg.w.name, len(res.Metrics), len(defs))
	}
	return res, nil
}

// prepared is a workload after set-up: a running server (campaign loads) or
// the pristine state dir (restart load).
type prepared struct {
	h     *harness
	p     *pristine
	setup time.Duration
}

func prepare(cfg runConfig, root string, tr *tracer, since time.Time) (*prepared, error) {
	in, err := newInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	h := newHarness(cfg.w, in, root, tr)
	p, err := h.setUp()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return &prepared{h: h, p: p, setup: time.Since(since)}, nil
}

// discard tears a prepared workload down so set-up can run again.
func (pr *prepared) discard() error {
	if err := pr.stop(); err != nil {
		return err
	}
	return os.RemoveAll(pr.h.stateDir)
}

func (pr *prepared) measure(dur time.Duration, next *atomic.Int64, collect bool) *window {
	if pr.p != nil {
		return pr.h.restartWindow(dur, pr.p, collect)
	}
	return pr.h.campaignWindow(dur, next)
}

// stop stops the server if one is running.
func (pr *prepared) stop() error {
	if pr.h.srv == nil {
		return nil
	}
	return pr.h.stop()
}

// check verifies the outputs of the served campaigns (and of the replayed
// ones, which must agree with them) and fills the run's request counts.
func (pr *prepared) check(cfg runConfig, res *runResult, replayed []outcome) error {
	if err := pr.h.err(); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	var expected map[int]expectedEntry
	if cfg.seed == defaultSeed && cfg.expectedDir != "" {
		var err error
		if expected, err = loadExpected(cfg.expectedDir, cfg.w); err != nil {
			return err
		}
	}
	bad, err := checkOutcomes(cfg.w, pr.h.in, append(pr.h.outcomes, replayed...), expected)
	if err != nil {
		return err
	}
	res.Problems = append(res.Problems, bad...)
	res.Attempted = pr.h.attempted.Load()
	res.Failed = pr.h.failed.Load()
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runUntraced measures the end-to-end metrics: set-up (repeated, median),
// one measured window with tracing off, the output check.
func runUntraced(cfg runConfig, root string, res *runResult) error {
	var setups sample
	var pr *prepared
	since := processStart
	for {
		var err error
		if pr, err = prepare(cfg, root, nil, since); err != nil {
			return err
		}
		setups.add(pr.setup.Seconds())
		if len(setups) >= cfg.w.setUps {
			break
		}
		if err := pr.discard(); err != nil {
			return err
		}
		since = time.Now()
	}
	var next atomic.Int64
	win := pr.measure(seconds(cfg.seconds), &next, true)
	if err := pr.stop(); err != nil {
		return err
	}
	if err := pr.check(cfg, res, nil); err != nil {
		return err
	}
	m := res.Metrics
	m.set("setup_s", setups.median(), len(setups))
	m.set("steps_per_s", win.stepsPerSecond(), win.steps)
	m.set("step_ms_p50", win.decision.ms().median(), len(win.decision))
	m.set("step_ms_p90", win.decision.ms().quantile(0.9), len(win.decision))
	if n := len(win.decision); n >= 1000 {
		res.Info = append(res.Info, fmt.Sprintf("step_ms_p99 %.4f ms n=%d (printed, not gated)", win.decision.ms().quantile(0.99), n))
	}
	m.set("lifecycle_s_p50", win.lifecycle.seconds().median(), len(win.lifecycle))
	m.set("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

// runTraced measures the per-layer metrics: one set-up, a traced window, an
// untraced window of the same length on the same server (their difference
// is the tracing overhead), then the single-threaded layer replay.
func runTraced(cfg runConfig, root string, res *runResult) error {
	tr := newTracer()
	pr, err := prepare(cfg, root, tr, time.Now())
	if err != nil {
		return err
	}
	dur := seconds(cfg.seconds / 3)
	var next atomic.Int64
	traced := pr.measure(dur, &next, false)

	// The second window runs with the recorder detached: same server, same
	// campaign list, continuing where the traced window stopped.
	tr.paused.Store(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	untraced := pr.measure(dur, &next, true)
	cpu = cpuSeconds() - cpu
	runtime.ReadMemStats(&after)
	tr.paused.Store(false)

	if err := pr.stop(); err != nil {
		return err
	}
	totals, drainClose := pr.h.totals, pr.h.drainClose

	rep, err := runReplay(cfg.w, pr.h.in, tr, root)
	if err != nil {
		return err
	}
	if err := pr.check(cfg, res, rep.outcomes); err != nil {
		return err
	}

	res.spans = tr.snapshot()
	if err := checkNesting(res.spans); err != nil {
		res.Problems = append(res.Problems, "trace: "+err.Error())
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".jsonl"), res.spans); err != nil {
		return err
	}

	m := res.Metrics
	res.Info = append(res.Info, layerMetrics(m, cfg.w, res.spans, rep)...)
	cno, err := cnoMean(pr.h.in, rep.outcomes)
	if err != nil {
		return err
	}
	m.set("quality.cno_mean", cno, len(rep.outcomes))

	drainClose.addDur(rep.drainClose)
	m.set("serve.drain_close_ms_p50", drainClose.ms().median(), len(drainClose))
	boot := append(mergeObserved(pr.h.setUpSteps).boot, traced.boot...)
	boot = append(boot, untraced.boot...)
	m.set("serve.boot_step_ms_p50", boot.ms().median(), len(boot))
	m.set("serve.steps_completed", float64(totals.steps), 1)
	m.set("serve.rejected", float64(totals.rejected), 1)
	m.set("serve.contained_failures", float64(totals.contained), 1)

	steps := float64(max(untraced.steps, 1))
	m.set("proc.cpu_ms_per_step", cpu*1e3/steps, untraced.steps)
	m.set("proc.alloc_kb_per_step", float64(after.TotalAlloc-before.TotalAlloc)/1024/steps, untraced.steps)
	m.set("proc.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	overhead := 0.0
	if u := untraced.stepsPerSecond(); u > 0 {
		overhead = (u - traced.stepsPerSecond()) / u * 100
	}
	m.set("trace.overhead_pct", overhead, traced.steps+untraced.steps)
	m.set("trace.spans", float64(len(res.spans)), len(res.spans))
	return nil
}
