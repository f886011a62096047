package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/optimizer"
)

// TestStepContextCancelledAtEntry pins the trial-boundary cancellation
// contract: a StepContext with an already-cancelled context returns an error
// matching both optimizer.ErrCampaignCancelled and the context cause, records
// nothing, and leaves the campaign exactly where it was — stepping on with a
// live context afterwards reproduces the uncancelled run bitwise.
func TestStepContextCancelledAtEntry(t *testing.T) {
	l, err := New(fastParams(1))
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	opts := fixtureOptions(t, 5)

	baselineCampaign, err := l.NewCampaign(fixtureEnv(t), opts, nil)
	if err != nil {
		t.Fatalf("NewCampaign error: %v", err)
	}
	baseline, err := baselineCampaign.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	c, err := l.NewCampaign(fixtureEnv(t), opts, nil)
	if err != nil {
		t.Fatalf("NewCampaign error: %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Interleave a cancelled attempt before every real step.
	for {
		trialsBefore := len(c.Trials())
		if _, err := c.StepContext(cancelled); !errors.Is(err, optimizer.ErrCampaignCancelled) {
			t.Fatalf("cancelled StepContext error = %v, want ErrCampaignCancelled", err)
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled StepContext error = %v, want context.Canceled in the chain", err)
		}
		if got := len(c.Trials()); got != trialsBefore {
			t.Fatalf("cancelled step recorded a trial (%d -> %d)", trialsBefore, got)
		}
		done, err := c.StepContext(context.Background())
		if err != nil {
			t.Fatalf("live step: %v", err)
		}
		if done {
			break
		}
	}
	res, err := c.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	sameResult(t, "cancel-interleaved run", res, baseline)
}

// TestPlannerCancelledBetweenPhases drives nextConfig itself with a cancelled
// context: the planner must stop at a phase boundary with the sentinel error
// instead of planning on.
func TestPlannerCancelledBetweenPhases(t *testing.T) {
	l, err := New(fastParams(1))
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	opts := fixtureOptions(t, 5)
	c, err := l.NewCampaign(fixtureEnv(t), opts, nil)
	if err != nil {
		t.Fatalf("NewCampaign error: %v", err)
	}
	// Step past the bootstrap so nextConfig exercises the full planning
	// pipeline (gather, fit, eligibility, path scoring).
	for !c.boot.Done() {
		if done, err := c.Step(); err != nil || done {
			t.Fatalf("bootstrap stepping: done=%v err=%v", done, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = c.planner.nextConfig(ctx, c.history, c.budget.Remaining())
	if !errors.Is(err, optimizer.ErrCampaignCancelled) {
		t.Fatalf("nextConfig under cancelled ctx = %v, want ErrCampaignCancelled", err)
	}
	// A nil context still means "never cancelled".
	if _, _, err := c.planner.nextConfig(nil, c.history, c.budget.Remaining()); err != nil {
		t.Fatalf("nextConfig with nil ctx: %v", err)
	}
}

// countingCtx is a context whose Err counts its calls and, with cancelAt > 0,
// reports context.Canceled from the cancelAt-th call on. Err is the only
// method the planner's polls use, and it is safe for the path fan-out's
// concurrent polls.
type countingCtx struct {
	context.Context
	calls    atomic.Int64
	cancelAt int64
}

func (c *countingCtx) Err() error {
	if n := c.calls.Add(1); c.cancelAt > 0 && n >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestPlannerCancelledAtEveryBoundary cancels one decision at each of its
// polls in turn. The census pins where the polls are — one before the sharing
// claim, one per phase of the plan driver, one per path evaluation — so a
// phase that runs without passing through the driver's poll moves the count
// and fails here. At every poll the decision must stop with the cancellation
// sentinel, publish nothing and leave the planner where it was; a replica
// stepping in the same share group after the cancelled leader must find the
// claim abandoned, plan the decision itself and reproduce the isolated run
// bitwise (a leaked claim would hang it, an adopted half-made decision would
// change its trials); and the cancelled planner itself, asked again outside
// any group, must score every path bitwise as a planner that was never
// cancelled does — at lookahead 2 with incremental refits that retry runs on
// workspaces whose working copies the cancelled attempt left behind, valid
// for root models that no longer exist.
func TestPlannerCancelledAtEveryBoundary(t *testing.T) {
	// Lookahead 1 takes the exhaustive fan-out: one path per eligible
	// candidate. So does lookahead 2 here, the fixture's candidates being too
	// few to prune.
	incremental := fastParams(2)
	incremental.SpeculativeRefit = SpecRefitIncremental
	for name, params := range map[string]Params{"la1-full": fastParams(1), "la2-incremental": incremental} {
		t.Run(name, func(t *testing.T) { testCancelledAtEveryBoundary(t, params) })
	}
}

func testCancelledAtEveryBoundary(t *testing.T, params Params) {
	l, err := New(params)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	opts := fixtureOptions(t, 5)
	atFirstDecision := func(g *ShareGroup) *Campaign {
		c, err := l.NewCampaign(fixtureEnv(t), opts, g)
		if err != nil {
			t.Fatalf("NewCampaign error: %v", err)
		}
		for !c.boot.Done() {
			if done, err := c.Step(); err != nil || done {
				t.Fatalf("bootstrap stepping: done=%v err=%v", done, err)
			}
		}
		return c
	}
	decide := func(c *Campaign, ctx context.Context) (int, error) {
		cfg, ok, err := c.planner.nextConfig(ctx, c.history, c.budget.Remaining())
		if err == nil && !ok {
			t.Fatal("the first decision found no eligible candidate; the fixture budget is too tight for this test")
		}
		return cfg.ID, err
	}

	isolated, err := atFirstDecision(nil).Run()
	if err != nil {
		t.Fatalf("isolated run: %v", err)
	}

	census := &countingCtx{Context: context.Background()}
	wantID, err := decide(atFirstDecision(nil), census)
	if err != nil {
		t.Fatalf("uncancelled decision: %v", err)
	}
	polls := census.calls.Load()
	ref := atFirstDecision(nil)
	d, err := ref.planner.selectCandidates(context.Background(), ref.history, ref.budget.Remaining())
	if err != nil || d == nil {
		t.Fatalf("selectCandidates: %v, %v", d, err)
	}
	if err := ref.planner.rootModels(d); err != nil {
		t.Fatalf("rootModels: %v", err)
	}
	if err := ref.planner.eligibility(d); err != nil {
		t.Fatalf("eligibility: %v", err)
	}
	if want := int64(1 + len(planPhases) + len(d.eligible)); polls != want {
		t.Fatalf("one decision polled its context %d times, want %d (1 pre-claim + %d phases + %d paths)",
			polls, want, len(planPhases), len(d.eligible))
	}
	// scores plans the campaign's pending decision without concluding it.
	scores := func(c *Campaign) []pathScore {
		d, err := c.planner.selectCandidates(context.Background(), c.history, c.budget.Remaining())
		if err != nil || d == nil {
			t.Fatalf("selectCandidates: %v, %v", d, err)
		}
		if _, err := c.planner.plan(d); err != nil {
			t.Fatalf("plan: %v", err)
		}
		return d.scores
	}
	wantScores := scores(atFirstDecision(nil))

	for k := int64(1); k <= polls+1; k++ {
		g := NewShareGroup()
		leader := atFirstDecision(g)
		id, err := decide(leader, &countingCtx{Context: context.Background(), cancelAt: k})
		if k > polls {
			// Cancelled only after the last poll: the decision is undisturbed.
			if err != nil || id != wantID {
				t.Fatalf("cancelAt=%d (past the last poll): decision %d, %v; want %d", k, id, err, wantID)
			}
			continue
		}
		if !errors.Is(err, optimizer.ErrCampaignCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelAt=%d: nextConfig error = %v, want ErrCampaignCancelled wrapping context.Canceled", k, err)
		}
		if n := g.decisions.Len(); n != 0 {
			t.Fatalf("cancelAt=%d: the cancelled leader published %d decisions", k, n)
		}
		solo := atFirstDecision(nil)
		if _, err := decide(solo, &countingCtx{Context: context.Background(), cancelAt: k}); !errors.Is(err, optimizer.ErrCampaignCancelled) {
			t.Fatalf("cancelAt=%d: isolated nextConfig error = %v, want ErrCampaignCancelled", k, err)
		}
		for i, got := range scores(solo) {
			if got != wantScores[i] {
				t.Fatalf("cancelAt=%d: the retried decision scored path %d as %+v, an uncancelled planner as %+v", k, i, got, wantScores[i])
			}
		}
		replica, err := l.NewCampaign(fixtureEnv(t), opts, g)
		if err != nil {
			t.Fatalf("NewCampaign error: %v", err)
		}
		res, err := replica.Run()
		if err != nil {
			t.Fatalf("cancelAt=%d: replica run: %v", k, err)
		}
		sameResult(t, fmt.Sprintf("replica after a leader cancelled at poll %d", k), res, isolated)
		// The cancelled call left the leader's planner where it was: asked
		// again, it adopts the decision the replica planned.
		if id, err := decide(leader, nil); err != nil || id != wantID {
			t.Fatalf("cancelAt=%d: leader's second attempt: decision %d, %v; want %d", k, id, err, wantID)
		}
	}
}
