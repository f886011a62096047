package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/optimizer"
)

// MultiRunner drives N campaigns concurrently over one ShareGroup: a bounded
// worker pool steps campaigns round-robin (one Step per turn, then back of
// the queue), so no campaign starves and replica campaigns stay roughly in
// lockstep — the regime where the group's single-flight decision cache turns
// N plans into one. Each campaign itself remains single-threaded (Campaigns
// are not safe for concurrent use; the runner never steps one from two
// goroutines), and each produces the bitwise-identical trial sequence it
// would produce run alone.
type MultiRunner struct {
	group       *ShareGroup
	concurrency int

	items   []*multiItem
	started atomic.Bool
}

type multiItem struct {
	name     string
	campaign *Campaign
	result   MultiResult
}

// MultiResult is the outcome of one campaign of a batch.
type MultiResult struct {
	// Name is the label the campaign was added under.
	Name string
	// Result is the campaign's recommendation; valid when Err is nil.
	Result optimizer.Result
	// Err is the campaign's terminal error, if any. One campaign failing
	// does not abort the batch.
	Err error
	// Steps counts the Step calls the runner made on this campaign
	// (trials run plus the final call that reports completion).
	Steps int
}

// CampaignFailure is the structured failure record of one campaign of a
// batch: which campaign failed, the errors.Is-matchable cause, and whether
// the failure is transient — worth re-running the campaign (typically by
// resuming its last snapshot) rather than writing it off.
type CampaignFailure struct {
	// Name is the label the campaign was added under.
	Name string
	// Index is the campaign's position in Add order (MultiSummary.Results
	// index), disambiguating duplicate names.
	Index int
	// Err is the campaign's terminal error with its full wrap chain intact:
	// errors.Is matches the campaign-control sentinels
	// (optimizer.ErrRunFailed, optimizer.ErrCampaignCancelled, ...) and
	// errors.As extracts the underlying *optimizer.RunError when the failure
	// came from a profiling run.
	Err error
	// Transient reports whether re-running the campaign can plausibly
	// succeed: cancellations and deadline aborts (the driver stopped the
	// campaign, not the campaign itself), trial timeouts, and profiling
	// failures the environment marked retryable are transient; fatal
	// environment errors and permanent run failures are not.
	Transient bool
}

// classifyFailure builds the structured record of one failed campaign.
func classifyFailure(name string, index int, err error) CampaignFailure {
	f := CampaignFailure{Name: name, Index: index, Err: err}
	switch {
	case errors.Is(err, optimizer.ErrCampaignCancelled):
		f.Transient = true
	case errors.Is(err, optimizer.ErrEnvironmentFatal):
		f.Transient = false
	case errors.Is(err, optimizer.ErrTrialTimeout):
		f.Transient = true
	default:
		var runErr *optimizer.RunError
		if errors.As(err, &runErr) {
			f.Transient = runErr.Transient
		}
	}
	return f
}

// MultiSummary is the outcome of a whole batch.
type MultiSummary struct {
	// Results holds one entry per added campaign, in Add order.
	Results []MultiResult
	// Failures holds one structured record per campaign whose Err is
	// non-nil, in Add order — the machine-readable view a driving service
	// reports and acts on (retry transient failures, quarantine the rest).
	// Empty when every campaign finished.
	Failures []CampaignFailure
	// Elapsed is the wall-clock time of the Run call.
	Elapsed time.Duration
	// CampaignsPerSec is len(Results) divided by Elapsed — the batch
	// throughput number the benchmark gates on.
	CampaignsPerSec float64
}

// NewMultiRunner creates a runner stepping at most concurrency campaigns at
// once (0 defaults to GOMAXPROCS) over the given share group. A nil group
// runs the batch share-nothing: same fair scheduler, every campaign isolated.
func NewMultiRunner(concurrency int, g *ShareGroup) *MultiRunner {
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	return &MultiRunner{group: g, concurrency: concurrency}
}

// Group returns the runner's share group (nil for a share-nothing runner),
// for creating or resuming campaigns into it before Attach.
func (r *MultiRunner) Group() *ShareGroup { return r.group }

// Add creates a campaign into the runner's share group and queues it.
func (r *MultiRunner) Add(name string, l *Lynceus, env optimizer.Environment, opts optimizer.Options) error {
	if l == nil {
		return errors.New("core: nil optimizer")
	}
	c, err := l.NewCampaign(env, opts, r.group)
	if err != nil {
		return fmt.Errorf("core: campaign %q: %w", name, err)
	}
	r.Attach(name, c)
	return nil
}

// Attach queues an existing campaign — typically one resumed into the
// runner's group via ResumeCampaign. The campaign must not be stepped
// by anyone else while the runner runs.
func (r *MultiRunner) Attach(name string, c *Campaign) {
	r.items = append(r.items, &multiItem{name: name, campaign: c, result: MultiResult{Name: name}})
}

// Run steps every queued campaign to completion and returns the batch
// summary. Fair scheduling: the queue hands each worker one campaign for one
// Step; unfinished campaigns re-enter the queue behind the others. A Run can
// only happen once per runner.
func (r *MultiRunner) Run() (MultiSummary, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run under a context: cancelling it stops every campaign at
// its next step (between trials or between planner phases) and records the
// cancellation as that campaign's failure — transient, since resuming the
// campaigns' snapshots continues them. The summary is returned, not
// discarded, so a cancelled batch still reports how far each campaign got.
func (r *MultiRunner) RunContext(ctx context.Context) (MultiSummary, error) {
	if r.started.Swap(true) {
		return MultiSummary{}, errors.New("core: MultiRunner.Run called twice")
	}
	start := time.Now()
	n := len(r.items)
	if n > 0 {
		// Every live campaign occupies at most one queue slot (a worker holds
		// it while stepping, re-enqueues or drops it after), so the buffer
		// never blocks a send and the last finisher can close the queue.
		queue := make(chan *multiItem, n)
		var remaining atomic.Int64
		remaining.Store(int64(n))
		for _, it := range r.items {
			queue <- it
		}
		workers := r.concurrency
		if workers > n {
			workers = n
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range queue {
					done, err := it.campaign.StepContext(ctx)
					it.result.Steps++
					if err != nil {
						it.result.Err = err
						done = true
					}
					if !done {
						queue <- it
						continue
					}
					if it.result.Err == nil {
						it.result.Result, it.result.Err = it.campaign.Result()
					}
					if remaining.Add(-1) == 0 {
						close(queue)
					}
				}
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	summary := MultiSummary{Elapsed: elapsed}
	for i, it := range r.items {
		summary.Results = append(summary.Results, it.result)
		if it.result.Err != nil {
			summary.Failures = append(summary.Failures, classifyFailure(it.name, i, it.result.Err))
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		summary.CampaignsPerSec = float64(n) / s
	}
	return summary, nil
}
