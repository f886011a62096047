//go:build goexperiment.synctest

package optimizer

import (
	"errors"
	"testing"
	"testing/synctest"
	"time"
)

// The virtual-time tests run the retry loop's backoff sleeps and per-trial
// timeout inside a synctest bubble, whose clock advances only when every
// goroutine in it is blocked, so elapsed time is checked to the nanosecond.
// Run them with GOEXPERIMENT=synctest go test -run '^TestVirtual'.

// runVirtual runs f in a synctest bubble (synctest.Test from Go 1.25 on).
func runVirtual(t *testing.T, f func(*testing.T)) { synctest.Run(func() { f(t) }) }

func TestVirtualRetryBackoff(t *testing.T) {
	runVirtual(t, func(t *testing.T) {
		transient := &RunError{Err: errors.New("preempted"), Transient: true}
		env := newFlakyEnv(t, map[int][]error{3: {transient, transient}})
		budget, _ := NewBudget(100)
		opts := Options{Seed: 7, Retry: RetryPolicy{MaxAttempts: 3, BackoffBase: 100 * time.Millisecond}}
		start := time.Now()
		if _, profiled, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 3), NewHistory(), budget, opts); err != nil || !profiled {
			t.Fatalf("RunTrialWithRetry = profiled %v, err %v", profiled, err)
		}
		want := opts.Retry.Backoff(7, 3, 1) + opts.Retry.Backoff(7, 3, 2)
		if got := time.Since(start); got != want {
			t.Fatalf("three attempts took %v, want exactly the backoff schedule %v", got, want)
		}
	})
}

func TestVirtualRetryTimeout(t *testing.T) {
	runVirtual(t, func(t *testing.T) {
		env := &blockingEnv{JobEnvironment: fixtureEnv(t), release: make(chan struct{})}
		defer close(env.release) // the abandoned attempt exits inside the bubble
		budget, _ := NewBudget(100)
		opts := Options{Retry: RetryPolicy{MaxAttempts: 1, Timeout: 90 * time.Second}}
		start := time.Now()
		_, _, err := RunTrialWithRetry(env, mustConfig(t, env.Space(), 4), NewHistory(), budget, opts)
		if !errors.Is(err, ErrTrialTimeout) {
			t.Fatalf("blocked attempt = %v, want ErrTrialTimeout", err)
		}
		if got := time.Since(start); got != opts.Retry.Timeout {
			t.Fatalf("blocked attempt failed after %v, want exactly %v", got, opts.Retry.Timeout)
		}
	})
}
