package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	lynceus "repro"
	"repro/internal/bagging"
	"repro/internal/numeric"
	"repro/internal/serve"
)

// The layer replay runs the workload's first campaigns again on a single
// goroutine, calling each layer's public functions directly with a span
// around every call: serve.BuildEnv, StartTunerShared, Store.PutSpec,
// StepContext (with env.run inside it), Snapshot, Store.PutSnapshot, Result,
// Store.Remove, and for the restart probe Store.Specs, Store.Snapshot,
// ResumeTunerShared and the first StepContext of each resumed campaign.
// Campaigns replay bitwise, so step k of a campaign here is step k of that
// campaign (or of any replica of its group in the same role) over HTTP;
// that is what makes the HTTP overhead a per-step subtraction.

// replayPrefix marks the campaign IDs of replay spans, so they never mix
// with the HTTP spans of the same campaigns.
const replayPrefix = "replay/"

// resumedPrefix marks the spans of the restart probe's call-by-call resume.
const resumedPrefix = replayPrefix + "resumed-"

// replayed is one campaign of the replay.
type replayed struct {
	spec   serve.CampaignSpec
	group  int
	leader bool
	label  string
	env    lynceus.Environment
	tuner  *lynceus.Tuner
	k      int
	done   bool
}

// replayReport is what the replay measured besides its spans.
type replayReport struct {
	outcomes      []outcome
	roles         map[string]bool // campaign label -> leader
	groups        map[string]int  // campaign label -> group
	snapshotBytes sample
	stateBytes    sample
	envStateBytes sample
	storeScan     time.Duration
	newPerCamp    time.Duration
	drainClose    time.Duration
	resumed       int
	limiterNs     float64
	modelFit      sample
	modelPredict  sample
	modelClone    sample
	// reference is the first finished campaign's trials: the training set
	// the model probe fits.
	reference []lynceus.Trial
}

type replayer struct {
	w      *workload
	in     *inputs
	tr     *tracer
	dir    string
	store  *serve.Store
	group  *lynceus.ShareGroup
	lim    *serve.Limiter
	report *replayReport
	// space is the workload's configuration space (every campaign's is
	// content-equal), for the model probe.
	space *lynceus.Space
}

// isLeader reports whether listed campaign i plans its own decisions: it is
// the first campaign of its group, and no set-up campaign led before it.
func (w *workload) isLeader(i int) bool {
	return !w.warmLeaders && w.group(i) == i
}

func runReplay(w *workload, in *inputs, tr *tracer, root string) (*replayReport, error) {
	dir := filepath.Join(root, "replay")
	store, err := serve.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		w: w, in: in, tr: tr, dir: dir, store: store,
		group: lynceus.NewShareGroup(),
		lim:   serve.NewLimiter(1e6, 1e6, nil),
		report: &replayReport{
			roles:  make(map[string]bool),
			groups: make(map[string]int),
		},
	}
	if w.warmLeaders {
		for g := 0; g < w.groups; g++ {
			c, err := r.open(in.warmSpec(g), g, true)
			if err != nil {
				return nil, err
			}
			for !c.done {
				if err := r.step(c); err != nil {
					return nil, err
				}
			}
		}
	}
	var live []*replayed
	for i := 0; i < w.replayCampaigns; i++ {
		c, err := r.open(in.spec(i), w.group(i), w.isLeader(i))
		if err != nil {
			return nil, err
		}
		live = append(live, c)
	}
	midDir := filepath.Join(root, "replay-mid")
	midRound := w.resumeStep()
	for round := 1; len(live) > 0; round++ {
		next := live[:0]
		for _, c := range live {
			if err := r.step(c); err != nil {
				return nil, err
			}
			if !c.done {
				next = append(next, c)
			}
		}
		live = next
		if round == midRound {
			if err := r.copyMidFlight(midDir, live); err != nil {
				return nil, err
			}
		}
	}
	if err := r.restartProbe(midDir); err != nil {
		return nil, err
	}
	r.limiterProbe()
	if err := r.modelProbe(); err != nil {
		return nil, err
	}
	return r.report, nil
}

// timed runs fn inside a span.
func (r *replayer) timed(name, label string, step int, fn func() error) error {
	sp := r.tr.begin(name, label, step)
	err := fn()
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("replay %s of %s: %w", name, label, err)
	}
	return nil
}

// open builds the campaign's environment, starts its tuner in the replay's
// share group and persists its spec: what POST /campaigns does.
func (r *replayer) open(spec serve.CampaignSpec, group int, leader bool) (*replayed, error) {
	c := &replayed{spec: spec, group: group, leader: leader, label: replayPrefix + spec.ID}
	r.report.roles[c.label] = leader
	r.report.groups[c.label] = group
	if err := r.timed("serve.build_env", c.label, -1, func() error {
		env, err := serve.BuildEnv(spec.Env)
		c.env = traceEnv(env, r.tr, c.label)
		return err
	}); err != nil {
		return nil, err
	}
	r.space = c.env.Space()
	if err := r.timed("core.start", c.label, -1, func() (err error) {
		c.tuner, err = lynceus.StartTunerShared(spec.Tuner.TunerConfig(), c.env, spec.Options.Options(), r.group)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.timed("serve.put_spec", c.label, -1, func() error { return r.store.PutSpec(spec) }); err != nil {
		return nil, err
	}
	return c, nil
}

// step advances the campaign one step the way the server's executor does:
// limiter, StepContext, Snapshot, PutSnapshot; a finished campaign then
// yields its result and is removed.
func (r *replayer) step(c *replayed) error {
	if ok, _ := r.lim.Allow("replay"); !ok {
		return fmt.Errorf("limiter refused a replay step")
	}
	if err := r.persistedStep(r.store, c, "core.step"); err != nil {
		return err
	}
	if c.k >= r.w.maxSteps() {
		c.done = true
	}
	if c.done {
		return r.finish(c)
	}
	return nil
}

// persistedStep is StepContext, Snapshot and PutSnapshot, each in a span.
func (r *replayer) persistedStep(store *serve.Store, c *replayed, stepSpan string) error {
	if err := r.timed(stepSpan, c.label, c.k, func() (err error) {
		c.done, err = c.tuner.StepContext(context.Background())
		return err
	}); err != nil {
		return err
	}
	var snap []byte
	if err := r.timed("core.snapshot", c.label, c.k, func() (err error) {
		snap, err = c.tuner.Snapshot()
		return err
	}); err != nil {
		return err
	}
	r.report.snapshotBytes.add(float64(len(snap)))
	if err := r.timed("serve.put_snapshot", c.label, c.k, func() error {
		return store.PutSnapshot(c.spec.ID, snap)
	}); err != nil {
		return err
	}
	c.k++
	return nil
}

func (r *replayer) finish(c *replayed) error {
	var res lynceus.Result
	if err := r.timed("core.result", c.label, -1, func() (err error) {
		res, err = c.tuner.Result()
		return err
	}); err != nil {
		return err
	}
	r.report.outcomes = append(r.report.outcomes, outcomeOf(c.spec.ID, c.group, res))
	if r.report.reference == nil {
		r.report.reference = res.Trials
	}
	bytes, err := dirBytes(filepath.Join(r.dir, c.spec.ID))
	if err != nil {
		return err
	}
	r.report.stateBytes.add(float64(bytes))
	if st, ok := c.env.(lynceus.StatefulEnvironment); ok {
		state, err := st.EnvState()
		if err != nil {
			return err
		}
		r.report.envStateBytes.add(float64(len(state)))
	}
	return r.timed("serve.remove", c.label, -1, func() error { return r.store.Remove(c.spec.ID) })
}

func outcomeOf(id string, group int, res lynceus.Result) outcome {
	out := outcome{group: group, id: id, recommended: res.Recommended.Config.ID}
	for _, tr := range res.Trials {
		out.trials = append(out.trials, tr.Config.ID)
	}
	return out
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// copyMidFlight copies the live campaigns' specs and snapshots into a second
// state dir: the mid-flight state the restart probe reopens.
func (r *replayer) copyMidFlight(dir string, live []*replayed) error {
	mid, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	for _, c := range live {
		snap, ok, err := r.store.Snapshot(c.spec.ID)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("replay: campaign %s has no snapshot", c.spec.ID)
		}
		if err := mid.PutSpec(c.spec); err != nil {
			return err
		}
		if err := mid.PutSnapshot(c.spec.ID, snap); err != nil {
			return err
		}
	}
	return nil
}

// restartProbe reopens the mid-flight state dir twice: once through
// serve.New (the whole restart, then Drain+Close), once call by call with a
// fresh share group, ending with each resumed campaign's first step on a
// cold planner.
func (r *replayer) restartProbe(dir string) error {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	begin := time.Now()
	srv, err := serve.New(serve.Config{StateDir: dir, Rate: 1e6, Burst: 1e6})
	if err != nil {
		return err
	}
	opened := time.Since(begin)
	r.report.resumed = int(srv.Stats().ResumedOnStart)
	if r.report.resumed > 0 {
		r.report.newPerCamp = opened / time.Duration(r.report.resumed)
	}
	begin = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = srv.Drain(ctx)
	cancel()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.report.drainClose = time.Since(begin)

	const probe = resumedPrefix + "store"
	begin = time.Now()
	var specs []serve.CampaignSpec
	if err := r.timed("serve.store_specs", probe, -1, func() (err error) {
		specs, err = store.Specs()
		return err
	}); err != nil {
		return err
	}
	scan := time.Since(begin)
	group := lynceus.NewShareGroup()
	var resumed []*replayed
	led := make(map[int]bool)
	for _, spec := range specs {
		label := resumedPrefix + spec.ID
		c := &replayed{spec: spec, label: label, k: r.w.resumeStep()}
		// In the fresh share group the first resumed campaign of each group
		// plans; its replicas adopt.
		c.group = r.report.groups[replayPrefix+spec.ID]
		c.leader = !led[c.group]
		led[c.group] = true
		r.report.roles[label], r.report.groups[label] = c.leader, c.group
		if err := r.timed("serve.build_env", label, -1, func() error {
			env, err := serve.BuildEnv(spec.Env)
			c.env = traceEnv(env, r.tr, label)
			return err
		}); err != nil {
			return err
		}
		var snap []byte
		begin := time.Now()
		if err := r.timed("serve.store_snapshot", label, -1, func() (err error) {
			snap, _, err = store.Snapshot(spec.ID)
			return err
		}); err != nil {
			return err
		}
		scan += time.Since(begin)
		if err := r.timed("core.resume", label, -1, func() (err error) {
			c.tuner, err = lynceus.ResumeTunerShared(spec.Tuner.TunerConfig(), c.env, snap, lynceus.ResumeFuncs{}, group)
			return err
		}); err != nil {
			return err
		}
		resumed = append(resumed, c)
	}
	r.report.storeScan = scan
	for _, c := range resumed {
		if err := r.persistedStep(store, c, "core.resume_first_step"); err != nil {
			return err
		}
	}
	return nil
}

// limiterProbe times Limiter.Allow in a tight loop: a span per call would
// cost more than the call.
func (r *replayer) limiterProbe() {
	const calls = 20000
	begin := time.Now()
	for i := 0; i < calls; i++ {
		r.lim.Allow("probe")
	}
	r.report.limiterNs = float64(time.Since(begin)) / calls
}

// modelProbe times the model kernel on the reference campaign's final
// training set over the workload's own space: a fit, a full-space batch
// prediction, and a clone plus one incremental update.
func (r *replayer) modelProbe() error {
	if len(r.report.reference) == 0 {
		return fmt.Errorf("replay: no finished campaign to probe the model on")
	}
	space := r.space
	var features [][]float64
	var targets []float64
	for _, tr := range r.report.reference {
		features = append(features, tr.Config.Features)
		targets = append(targets, tr.Cost)
	}
	params := bagging.Params{NumTrees: 10, Incremental: true}
	ens := bagging.New(params, 1)
	clone := bagging.New(params, 2)
	cols := space.FeatureColumns()
	out := make([]numeric.Gaussian, space.Size())
	const reps = 25
	for i := 0; i < reps; i++ {
		begin := time.Now()
		if err := ens.Fit(features, targets); err != nil {
			return err
		}
		r.report.modelFit.addDur(time.Since(begin))
		begin = time.Now()
		if err := ens.PredictBatch(cols, out); err != nil {
			return err
		}
		r.report.modelPredict.addDur(time.Since(begin))
		begin = time.Now()
		if err := ens.CloneInto(clone); err != nil {
			return err
		}
		if err := clone.Update(features[i%len(features)], targets[i%len(targets)]); err != nil {
			return err
		}
		r.report.modelClone.addDur(time.Since(begin))
	}
	return nil
}
