package serve

import (
	"context"
	"sync"
	"time"
)

// Watchdog detects stuck campaign steps. Every in-flight step arms an entry
// carrying its cancel function and deadline; a periodic Sweep cancels every
// overdue entry, which stops the step at its next planner-phase boundary
// through context propagation (core.Campaign.StepContext). Steps that do not
// respond to cancellation either — an Environment.Run blocked in foreign
// code — are abandoned by the executor after a grace period and their
// campaign is quarantined.
//
// The clock is injected: tests arm entries, advance a fake clock past the
// deadline, call Sweep directly and observe the cancellation, with no timing
// dependence.
type Watchdog struct {
	deadline time.Duration
	now      func() time.Time

	mu    sync.Mutex
	seq   uint64
	armed map[uint64]*armedStep
	fired uint64
}

type armedStep struct {
	campaign string
	deadline time.Time
	cancel   context.CancelFunc
}

// NewWatchdog creates a watchdog with the given per-step deadline.
// deadline <= 0 disables it (Arm becomes a no-op and Sweep never fires).
// now nil means time.Now.
func NewWatchdog(deadline time.Duration, now func() time.Time) *Watchdog {
	if now == nil {
		now = time.Now
	}
	return &Watchdog{deadline: deadline, now: now, armed: make(map[uint64]*armedStep)}
}

// Arm registers an in-flight step. cancel is invoked (once, by Sweep) if the
// step is still armed past its deadline. The returned token disarms it.
func (w *Watchdog) Arm(campaign string, cancel context.CancelFunc) (token uint64) {
	if w.deadline <= 0 {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	w.armed[w.seq] = &armedStep{campaign: campaign, deadline: w.now().Add(w.deadline), cancel: cancel}
	return w.seq
}

// Disarm unregisters a finished step. Disarming an already-swept token is a
// no-op, so executors always disarm unconditionally.
func (w *Watchdog) Disarm(token uint64) {
	if token == 0 {
		return
	}
	w.mu.Lock()
	delete(w.armed, token)
	w.mu.Unlock()
}

// Sweep cancels every armed step past its deadline and returns the campaign
// IDs it fired on. Fired entries are removed — each overdue step is
// cancelled exactly once.
func (w *Watchdog) Sweep() []string {
	if w.deadline <= 0 {
		return nil
	}
	now := w.now()
	var fired []string
	var cancels []context.CancelFunc
	w.mu.Lock()
	for token, step := range w.armed {
		if now.After(step.deadline) {
			fired = append(fired, step.campaign)
			cancels = append(cancels, step.cancel)
			delete(w.armed, token)
		}
	}
	w.fired += uint64(len(fired))
	w.mu.Unlock()
	// Cancel outside the lock: CancelFuncs may run arbitrary wakeups.
	for _, cancel := range cancels {
		cancel()
	}
	return fired
}

// Armed returns the number of in-flight steps (observability).
func (w *Watchdog) Armed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.armed)
}

// Fired returns the cumulative number of deadline cancellations.
func (w *Watchdog) Fired() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired
}
