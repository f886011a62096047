package main

import (
	"fmt"
	"strings"
	"time"

	lynceus "repro"
)

// stepKey identifies a step up to bitwise equivalence: campaigns of one group
// in one role (leading or following) do the same work at step k.
type stepKey struct {
	group  int
	leader bool
	k      int
}

// httpCampaign decodes the group and role of a campaign the load clients
// drove in a measured window, from its ID. ok is false for the set-up's
// campaigns (the throwaway ones and the leaders it runs ahead): the budgets
// are those of the measured traffic.
func httpCampaign(w *workload, id string) (group int, leader, ok bool) {
	var i int
	if _, err := fmt.Sscanf(id, "c%d", &i); err == nil {
		return w.group(i), w.isLeader(i), true
	}
	return 0, false, false
}

// stepCost is what one replayed step spent in each layer: the step's own
// time (planning or adopting), the environment run inside it, encoding the
// snapshot and making it durable.
type stepCost struct {
	self, env, snapshot, put time.Duration
}

func (c stepCost) total() time.Duration { return c.self + c.env + c.snapshot + c.put }

// keyCost is the median cost of one step over the replayed campaigns that
// took it: of the whole step, and of each layer on its own.
type keyCost struct {
	total  float64 // ns
	layers stepCost
}

func medianCost(costs []stepCost) keyCost {
	var totals, selfs, envs, snaps, puts sample
	for _, c := range costs {
		totals.addDur(c.total())
		selfs.addDur(c.self)
		envs.addDur(c.env)
		snaps.addDur(c.snapshot)
		puts.addDur(c.put)
	}
	d := func(s sample) time.Duration { return time.Duration(s.median()) }
	return keyCost{totals.median(), stepCost{d(selfs), d(envs), d(snaps), d(puts)}}
}

// layerMetrics derives the per-layer metrics from the spans of the traced
// window and the layer replay, and returns the time budgets it printed from
// them.
func layerMetrics(m metrics, w *workload, spans []span, rep *replayReport) []string {
	self := selfTimes(spans)
	byName := make(map[string]sample)
	// Replay cost of a step: core.step (or core.resume_first_step) +
	// core.snapshot + serve.put_snapshot.
	replayCost := make(map[stepKey][]stepCost)
	perStep := make(map[string]map[int]*stepCost) // replay label -> step -> cost
	resumed := make(map[string]bool)              // labels of the restart probe's campaigns
	leaderPlan := make(map[stepKey]time.Duration)
	leaderDecisions := make(map[string][]time.Duration) // self times, in step order
	var plan, adopt, bootSelf, resumeFirst sample
	var followerSteps []span
	// probe sums the restart probe's call-by-call resume, layer by layer.
	var probe struct{ buildEnv, scan, resume time.Duration }
	decisions, envRuns := 0, 0

	for _, sp := range spans {
		replay := strings.HasPrefix(sp.Campaign, replayPrefix)
		if !replay {
			if sp.Name == "env.run" {
				byName["http/env.run"] = append(byName["http/env.run"], float64(sp.dur()))
			}
			continue
		}
		byName[sp.Name] = append(byName[sp.Name], float64(sp.dur()))
		if strings.HasPrefix(sp.Campaign, resumedPrefix) {
			switch sp.Name {
			case "serve.build_env":
				probe.buildEnv += sp.dur()
			case "serve.store_specs", "serve.store_snapshot":
				probe.scan += sp.dur()
			case "core.resume":
				probe.resume += sp.dur()
			}
		}
		leader := rep.roles[sp.Campaign]
		switch sp.Name {
		case "core.resume_first_step", "core.step":
			if perStep[sp.Campaign] == nil {
				perStep[sp.Campaign] = make(map[int]*stepCost)
			}
			perStep[sp.Campaign][sp.Step] = &stepCost{self: self[sp.ID], env: sp.dur() - self[sp.ID]}
			if sp.Name == "core.resume_first_step" {
				resumed[sp.Campaign] = true
				if leader {
					resumeFirst.addDur(self[sp.ID])
				}
				break
			}
			if sp.Step < w.bootstrap {
				bootSelf.addDur(self[sp.ID])
				break
			}
			decisions++
			if leader {
				plan.addDur(self[sp.ID])
				leaderPlan[stepKey{rep.groups[sp.Campaign], true, sp.Step}] = self[sp.ID]
				leaderDecisions[sp.Campaign] = append(leaderDecisions[sp.Campaign], self[sp.ID])
			} else {
				adopt.addDur(self[sp.ID])
				followerSteps = append(followerSteps, sp)
			}
		case "core.snapshot":
			if c := perStep[sp.Campaign][sp.Step]; c != nil {
				c.snapshot = sp.dur()
			}
		case "serve.put_snapshot":
			if c := perStep[sp.Campaign][sp.Step]; c != nil {
				c.put = sp.dur()
			}
		case "env.run":
			envRuns++
		}
	}
	// The restart load's HTTP steps are first steps after a resume, so they
	// are matched with the restart probe's; every other load's with the
	// replay's uninterrupted steps.
	for label, steps := range perStep {
		if resumed[label] != (w.restartCampaigns > 0) {
			continue
		}
		for k, cost := range steps {
			key := stepKey{rep.groups[label], rep.roles[label], k}
			replayCost[key] = append(replayCost[key], *cost)
		}
	}

	// The HTTP overhead is a per-step subtraction: each traced http.step of a
	// decision minus the replayed cost of the same step.
	var httpStep, replayStep, overhead sample
	// The step budget sums the same matched steps instead (sums add, medians
	// do not): the share of client-observed step time each layer owns.
	var httpTotal time.Duration
	var layerTotal stepCost
	medians := make(map[stepKey]keyCost)
	for _, sp := range spans {
		if sp.Name != "http.step" || sp.Step < w.bootstrap {
			continue
		}
		group, leader, ok := httpCampaign(w, sp.Campaign)
		if !ok {
			continue
		}
		key := stepKey{group, leader, sp.Step}
		costs, ok := replayCost[key]
		if !ok {
			continue
		}
		med, ok := medians[key]
		if !ok {
			med = medianCost(costs)
			medians[key] = med
		}
		httpStep.addDur(sp.dur())
		replayStep.add(med.total)
		overhead.add(float64(sp.dur()) - med.total)
		httpTotal += sp.dur()
		layerTotal.self += med.layers.self
		layerTotal.env += med.layers.env
		layerTotal.snapshot += med.layers.snapshot
		layerTotal.put += med.layers.put
	}
	m.set("serve.http_overhead_ms_p50", overhead.ms().median(), len(overhead))
	m.set("trace.http_step_ms_p50", httpStep.ms().median(), len(httpStep))
	m.set("trace.replay_step_ms_p50", replayStep.ms().median(), len(replayStep))
	// Medians do not add, so the budget closes up to this named residual.
	m.set("trace.budget_residual_ms",
		httpStep.ms().median()-replayStep.ms().median()-overhead.ms().median(), len(httpStep))

	p50 := func(metric, spanName string, unit func(sample) sample) {
		s := byName[spanName]
		m.set(metric, unit(s).median(), len(s))
	}
	put := byName["serve.put_snapshot"]
	m.set("serve.put_snapshot_ms_p50", put.ms().median(), len(put))
	m.set("serve.put_snapshot_ms_p90", put.ms().quantile(0.9), len(put))
	p50("serve.put_spec_ms_p50", "serve.put_spec", sample.ms)
	p50("serve.remove_ms_p50", "serve.remove", sample.ms)
	p50("serve.build_env_ms_p50", "serve.build_env", sample.ms)
	p50("core.snapshot_ms_p50", "core.snapshot", sample.ms)
	p50("core.resume_ms_p50", "core.resume", sample.ms)
	p50("core.result_us_p50", "core.result", sample.us)
	m.set("serve.store_scan_ms", float64(rep.storeScan)/float64(time.Millisecond), rep.resumed)
	m.set("serve.new_ms_per_campaign", float64(rep.newPerCamp)/float64(time.Millisecond), rep.resumed)
	m.set("serve.limiter_allow_ns", rep.limiterNs, 1)
	m.set("serve.state_bytes_per_campaign", rep.stateBytes.mean(), len(rep.stateBytes))

	m.set("core.step_boot_us_p50", bootSelf.us().median(), len(bootSelf))
	m.set("core.step_plan_ms_p50", plan.ms().median(), len(plan))
	m.set("core.step_plan_ms_p90", plan.ms().quantile(0.9), len(plan))
	var early, late sample
	for _, ds := range leaderDecisions {
		n := min(len(ds), planWindow)
		var first, last sample
		for i := 0; i < n; i++ {
			first.addDur(ds[i])
			last.addDur(ds[len(ds)-1-i])
		}
		early.add(first.mean())
		late.add(last.mean())
	}
	m.set("core.step_plan_ms_early", early.ms().mean(), len(early))
	m.set("core.step_plan_ms_late", late.ms().mean(), len(late))
	m.set("core.step_adopt_us_p50", adopt.us().median(), len(adopt))
	m.set("core.snapshot_bytes_p50", rep.snapshotBytes.median(), len(rep.snapshotBytes))
	m.set("core.snapshot_bytes_max", rep.snapshotBytes.max(), len(rep.snapshotBytes))
	m.set("core.resume_first_step_ms_p50", resumeFirst.ms().median(), len(resumeFirst))
	m.set("core.decisions", float64(decisions), decisions)
	trials := 0
	for _, o := range rep.outcomes {
		trials += len(o.trials)
	}
	m.set("core.trials", float64(trials), len(rep.outcomes))

	// A follower step adopted its decision when its own time is under a tenth
	// of what the leader spent planning the same decision: useful outcomes
	// over attempts, seen from outside the share tier.
	adopted := 0
	for _, sp := range followerSteps {
		lead, ok := leaderPlan[stepKey{rep.groups[sp.Campaign], true, sp.Step}]
		if ok && self[sp.ID] < lead/10 {
			adopted++
		}
	}
	ratio := 0.0
	if len(followerSteps) > 0 {
		ratio = float64(adopted) / float64(len(followerSteps))
	}
	m.set("share.adopt_ratio", ratio, len(followerSteps))
	// The first start into the fresh group interns the space; the later ones
	// find it there.
	starts := byName["core.start"]
	m.set("core.start_ms_p50", starts[1:].ms().median(), len(starts)-1)
	m.set("share.first_intern_ms", starts[:1].ms().median()-starts[1:].ms().median(), 1)

	m.set("model.fit_us_p50", rep.modelFit.us().median(), len(rep.modelFit))
	m.set("model.predict_batch_us_p50", rep.modelPredict.us().median(), len(rep.modelPredict))
	m.set("model.clone_update_us_p50", rep.modelClone.us().median(), len(rep.modelClone))

	runs := byName["http/env.run"]
	m.set("env.run_us_p50", runs.us().median(), len(runs))
	m.set("env.run_us_p90", runs.us().quantile(0.9), len(runs))
	m.set("env.runs", float64(envRuns), envRuns)
	m.set("servesim.env_state_bytes", rep.envStateBytes.median(), len(rep.envStateBytes))

	var budgets []string
	if httpTotal > 0 {
		share := func(d time.Duration) float64 { return 100 * float64(d) / float64(httpTotal) }
		budgets = append(budgets, fmt.Sprintf(
			"step budget, share of the client-observed time of %d matched decision steps (mean %.3f ms): core step (plan or adopt) %.1f%%, env.run %.1f%%, snapshot encode %.1f%%, put_snapshot %.1f%%, http+admission+queue+contention %.1f%%",
			len(httpStep), httpStep.ms().mean(), share(layerTotal.self), share(layerTotal.env),
			share(layerTotal.snapshot), share(layerTotal.put), share(httpTotal-layerTotal.total())))
	}
	if total := probe.buildEnv + probe.scan + probe.resume; total > 0 {
		share := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
		budgets = append(budgets, fmt.Sprintf(
			"restart budget, share of resuming %d campaigns call by call (mean %.3f ms per campaign; serve.New took %.3f): build_env %.1f%%, store scan %.1f%%, resume %.1f%%",
			rep.resumed, total.Seconds()*1e3/float64(max(rep.resumed, 1)), m["serve.new_ms_per_campaign"].Value,
			share(probe.buildEnv), share(probe.scan), share(probe.resume)))
	}
	return budgets
}

// cnoMean is the paper's CNO over the campaigns' recommendations: true cost
// of the recommended configuration over the cost of the feasible optimum,
// deterministic per seed.
func cnoMean(in *inputs, outcomes []outcome) (float64, error) {
	const reps = 1 // replications per servesim ground-truth value
	var cno sample
	switch in.w.kind {
	case "tensorflow":
		job, err := lynceus.SyntheticTensorflowJob(in.w.envName, tensorflowSeed)
		if err != nil {
			return 0, err
		}
		best, err := job.Optimum(in.tmax)
		if err != nil {
			return 0, err
		}
		for _, o := range outcomes {
			got, err := job.Measurement(o.recommended)
			if err != nil {
				return 0, err
			}
			cno.add(got.Cost / best.Cost)
		}
	case "servesim":
		env, err := lynceus.NewServingEnvironment(in.w.envName, 0)
		if err != nil {
			return 0, err
		}
		best, err := env.Optimum(in.tmax, reps)
		if err != nil {
			return 0, err
		}
		for _, o := range outcomes {
			got, err := env.True(o.recommended, reps)
			if err != nil {
				return 0, err
			}
			cno.add(got.MeanCost / best.MeanCost)
		}
	}
	return cno.mean(), nil
}
