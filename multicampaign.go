package lynceus

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Multi-campaign throughput tier: run N tuning campaigns concurrently over one
// share group.
//
// Campaigns added to one MultiRunner draw planner scratch from a bounded
// shared workspace pool and — when two campaigns' planning inputs are
// identical (content-equal space, tuner parameters, seed, observed history,
// budget and unit prices) — adopt each other's planning decisions outright.
// Nothing else is shared: every campaign keeps its own environment, space
// instance and unit-price cache. Every campaign's trial sequence and
// recommendation remain bitwise identical to the same campaign run in
// isolation; sharing changes throughput, never results.

// ShareGroup is the shared state of a batch of campaigns: the cross-campaign
// decision cache and the workspace pool. It references no campaign,
// environment or space, so a dropped campaign is garbage. One group per
// co-scheduled batch.
type ShareGroup = core.ShareGroup

// NewShareGroup creates an empty share group, for wiring shared campaigns
// manually (StartTunerShared / ResumeTunerShared) outside a MultiRunner.
func NewShareGroup() *ShareGroup { return core.NewShareGroup() }

// MultiRunnerConfig configures a MultiRunner.
type MultiRunnerConfig struct {
	// Concurrency bounds how many campaigns step at once; 0 means
	// GOMAXPROCS. Each campaign still plans with its own TunerConfig.Workers
	// inside its step.
	Concurrency int
	// DisableSharing runs the batch share-nothing: same fair scheduler, but
	// every campaign plans every decision on private workspaces (the baseline
	// the throughput benchmark compares against; results are identical
	// either way).
	DisableSharing bool
}

// MultiResult is the outcome of one campaign of a batch.
type MultiResult struct {
	// Name is the label the campaign was added under.
	Name string
	// Result is the campaign's recommendation; valid when Err is nil.
	Result Result
	// Err is the campaign's terminal error, if any. One campaign failing
	// does not abort the batch.
	Err error
}

// MultiSummary is the outcome of a whole batch.
type MultiSummary struct {
	// Results holds one entry per added campaign, in Add order.
	Results []MultiResult
	// Elapsed is the wall-clock time of the Run call.
	Elapsed time.Duration
	// CampaignsPerSec is len(Results) divided by Elapsed.
	CampaignsPerSec float64
}

// MultiRunner drives N campaigns concurrently over one ShareGroup with fair
// round-robin scheduling: every campaign advances one trial per turn, so
// identical campaigns stay in lockstep and share almost all planning work.
// No campaign is ever stepped from two goroutines at once.
type MultiRunner struct {
	group       *ShareGroup
	concurrency int
	tuners      []*Tuner
	results     []MultiResult
	started     atomic.Bool
}

// NewMultiRunner creates a runner with a fresh share group (none under
// MultiRunnerConfig.DisableSharing).
func NewMultiRunner(cfg MultiRunnerConfig) *MultiRunner {
	r := &MultiRunner{concurrency: cfg.Concurrency}
	if r.concurrency <= 0 {
		r.concurrency = runtime.GOMAXPROCS(0)
	}
	if !cfg.DisableSharing {
		r.group = NewShareGroup()
	}
	return r
}

// Group returns the runner's share group, nil under
// MultiRunnerConfig.DisableSharing.
func (r *MultiRunner) Group() *ShareGroup { return r.group }

// Add creates a campaign with the given tuner configuration into the
// runner's share group and queues it under name. Names label results; they
// need not be unique.
func (r *MultiRunner) Add(name string, cfg TunerConfig, env Environment, opts Options) error {
	t, err := StartTunerShared(cfg, env, opts, r.group)
	return r.add(name, t, err)
}

// AddResumed resumes a snapshotted campaign into the runner's share group
// and queues it: the resumed campaign continues its bitwise-identical trial
// sequence while sharing decisions and workspaces with the batch.
func (r *MultiRunner) AddResumed(name string, cfg TunerConfig, env Environment, snapshot []byte, fns ResumeFuncs) error {
	t, err := ResumeTunerShared(cfg, env, snapshot, fns, r.group)
	return r.add(name, t, err)
}

func (r *MultiRunner) add(name string, t *Tuner, err error) error {
	if err != nil {
		return fmt.Errorf("lynceus: campaign %q: %w", name, err)
	}
	r.tuners = append(r.tuners, t)
	r.results = append(r.results, MultiResult{Name: name})
	return nil
}

// Run steps every queued campaign to completion and returns the batch
// summary. Fair scheduling: the queue hands each worker one campaign for one
// Step; unfinished campaigns re-enter the queue behind the others. One
// campaign failing is recorded in its MultiResult.Err and does not abort the
// batch. Run can only be called once per runner.
func (r *MultiRunner) Run() (MultiSummary, error) {
	if r.started.Swap(true) {
		return MultiSummary{}, errors.New("lynceus: MultiRunner.Run called twice")
	}
	start := time.Now()
	n := len(r.tuners)
	// Every live campaign holds at most one queue slot, so a send never
	// blocks; the queue closes once the last campaign has finished.
	queue := make(chan int, n)
	for i := range n {
		queue <- i
	}
	var live sync.WaitGroup
	live.Add(n)
	for range min(r.concurrency, n) {
		go func() {
			for i := range queue {
				done, err := r.tuners[i].Step()
				if err == nil && !done {
					queue <- i
					continue
				}
				res := &r.results[i]
				res.Err = err
				if err == nil {
					res.Result, res.Err = r.tuners[i].Result()
				}
				live.Done()
			}
		}()
	}
	live.Wait()
	close(queue)
	summary := MultiSummary{Results: r.results, Elapsed: time.Since(start)}
	if s := summary.Elapsed.Seconds(); s > 0 {
		summary.CampaignsPerSec = float64(n) / s
	}
	return summary, nil
}

// StartTunerShared is StartTuner into a share group: use it to wire shared
// campaigns to a custom driver instead of a MultiRunner. A nil group is
// plain StartTuner.
func StartTunerShared(cfg TunerConfig, env Environment, opts Options, g *ShareGroup) (*Tuner, error) {
	l, err := newCoreTuner(cfg)
	if err != nil {
		return nil, err
	}
	return l.NewCampaign(env, opts, g)
}

// ResumeTunerShared is ResumeTuner with re-supplied process-local functions
// (fns: required when the snapshotted campaign used Options.SetupCost), into
// a share group. A nil group resumes the campaign on its own.
func ResumeTunerShared(cfg TunerConfig, env Environment, snapshot []byte, fns ResumeFuncs, g *ShareGroup) (*Tuner, error) {
	l, err := newCoreTuner(cfg)
	if err != nil {
		return nil, err
	}
	return l.ResumeCampaign(env, snapshot, fns, g)
}
