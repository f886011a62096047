//go:build goexperiment.synctest

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/synctest"
	"time"

	lynceus "repro"
)

// The virtual-time tests run the server's timing paths — step deadline and
// stuck-step grace, limiter refill, drain — inside a synctest bubble, whose
// clock advances only when every goroutine in it is blocked, so each verdict
// lands at an exact instant and a 3 s grace costs no real time. Requests go
// through Handler().ServeHTTP: a goroutine blocked on a socket is not durably
// blocked, so an httptest.Server would stall the fake clock. Every test
// releases its blocked environments and closes its server inside the bubble.
//
// Run them with GOEXPERIMENT=synctest go test -run '^TestVirtual'.

// runVirtual runs f in a synctest bubble (synctest.Test from Go 1.25 on).
func runVirtual(t *testing.T, f func(*testing.T)) { synctest.Run(func() { f(t) }) }

func virtualServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.StateDir = t.TempDir()
	if cfg.Rate == 0 {
		cfg.Rate = -1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// call serves one request in-process on behalf of the named client.
func call(t *testing.T, s *Server, method, path string, body any, client string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set("X-Client-ID", client)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func mustCall(t *testing.T, s *Server, method, path string, body any, want int) {
	t.Helper()
	if rec := call(t, s, method, path, body, "test"); rec.Code != want {
		t.Fatalf("%s %s = %d (body %s), want %d", method, path, rec.Code, rec.Body, want)
	}
}

func status(t *testing.T, s *Server, id string) CampaignStatus {
	t.Helper()
	c, ok := s.lookup(id)
	if !ok {
		t.Fatalf("no campaign %s", id)
	}
	return c.getStatus()
}

func TestVirtualStuckStepLadder(t *testing.T) {
	runVirtual(t, func(t *testing.T) {
		inner, err := BuildEnv(EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		const deadline = 30 * time.Millisecond
		stuck := &stuckEnv{inner: inner, release: make(chan struct{})}
		s := virtualServer(t, Config{
			StepDeadline: deadline,
			EnvFactory: factoryFor(map[string]lynceus.Environment{
				"tar":  stuck,
				"slow": &sleepEnv{inner: inner, delay: 12 * time.Millisecond},
			}),
		})
		defer s.Close()
		defer close(stuck.release) // the zombie step exits before Close returns

		// Rung 3: a step that ignores cancellation is answered exactly one
		// deadline plus the documented 3 s grace after it started, and
		// quarantined.
		req := fastSpec(t, "wedged", 9)
		req.Env.Name = "tar"
		mustCall(t, s, "POST", "/campaigns", req, http.StatusCreated)
		start := time.Now()
		rec := call(t, s, "POST", "/campaigns/wedged/step", nil, "test")
		if got, want := time.Since(start), deadline+3*time.Second; got != want {
			t.Fatalf("stuck step answered after %v, want exactly %v", got, want)
		}
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("stuck step = %d (body %s), want 504", rec.Code, rec.Body)
		}
		if st := status(t, s, "wedged"); st.State != StateQuarantined || !strings.Contains(st.QuarantineReason, "stuck") {
			t.Fatalf("stuck campaign status = %+v", st)
		}
		if st := s.Stats(); st.StuckCampaigns != 1 || st.WatchdogCancels != 1 {
			t.Fatalf("stats = %+v, want 1 stuck campaign and 1 watchdog cancel", st)
		}

		// Rung 2: 12 ms trials overrun the 30 ms deadline in the third one;
		// the step stops when that trial returns at 36 ms, long before the
		// grace ends, and is rolled back, not quarantined.
		slow := fastSpec(t, "after", 10)
		slow.Env.Name = "slow"
		mustCall(t, s, "POST", "/campaigns", slow, http.StatusCreated)
		start = time.Now()
		rec = call(t, s, "POST", "/campaigns/after/step", stepRequest{Steps: 10_000}, "test")
		if got, want := time.Since(start), 36*time.Millisecond; got != want {
			t.Fatalf("overrunning step answered after %v, want exactly %v", got, want)
		}
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("overrunning step = %d (body %s), want 504", rec.Code, rec.Body)
		}
		st := status(t, s, "after")
		if st.State != StateActive || !strings.Contains(st.LastError, "campaign cancelled") {
			t.Fatalf("cooperatively cancelled campaign = %+v, want active with the cancellation sentinel", st)
		}
		if got := s.Stats(); got.Rollbacks != 1 || got.StuckCampaigns != 1 || got.WatchdogCancels != 2 {
			t.Fatalf("stats = %+v, want 1 rollback, still 1 stuck campaign, 2 watchdog cancels", got)
		}
	})
}

func TestVirtualRateLimitRefill(t *testing.T) {
	runVirtual(t, func(t *testing.T) {
		s := virtualServer(t, Config{Rate: 1, Burst: 1})
		defer s.Close()
		create := func(id, client string) *httptest.ResponseRecorder {
			return call(t, s, "POST", "/campaigns", fastSpec(t, id, 1), client)
		}

		if rec := create("a1", "alice"); rec.Code != http.StatusCreated {
			t.Fatalf("alice's first create = %d (body %s)", rec.Code, rec.Body)
		}
		rec := create("a2", "alice")
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
			t.Fatalf("alice's second create = %d, Retry-After %q; want 429, \"1\"", rec.Code, rec.Header().Get("Retry-After"))
		}
		if rec := create("b1", "bob"); rec.Code != http.StatusCreated {
			t.Fatalf("bob's create = %d, want 201 despite alice's empty bucket", rec.Code)
		}
		time.Sleep(999 * time.Millisecond)
		if rec := create("a2", "alice"); rec.Code != http.StatusTooManyRequests {
			t.Fatalf("create at 999ms = %d, want 429", rec.Code)
		}
		time.Sleep(time.Millisecond)
		if rec := create("a2", "alice"); rec.Code != http.StatusCreated {
			t.Fatalf("create at 1s = %d (body %s), want 201", rec.Code, rec.Body)
		}
	})
}

func TestVirtualDrain(t *testing.T) {
	runVirtual(t, func(t *testing.T) {
		inner, err := BuildEnv(EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		const trial = 5 * time.Second
		s := virtualServer(t, Config{
			EnvFactory: factoryFor(map[string]lynceus.Environment{"slow": &sleepEnv{inner: inner, delay: trial}}),
		})
		defer s.Close()
		req := fastSpec(t, "drain", 3)
		req.Env.Name = "slow"
		mustCall(t, s, "POST", "/campaigns", req, http.StatusCreated)

		start := time.Now()
		replies := make(chan *httptest.ResponseRecorder, 1)
		go func() { replies <- call(t, s, "POST", "/campaigns/drain/step", nil, "test") }()
		synctest.Wait() // the step is inside its 5 s trial

		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err = s.Drain(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Drain under a 1 s deadline = %v, want DeadlineExceeded", err)
		}
		if got := time.Since(start); got != time.Second {
			t.Fatalf("interrupted Drain returned after %v, want exactly 1s", got)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if got := time.Since(start); got != trial {
			t.Fatalf("Drain returned after %v, want exactly %v", got, trial)
		}
		if rec := <-replies; rec.Code != http.StatusOK {
			t.Fatalf("drained step = %d (body %s), want 200", rec.Code, rec.Body)
		}
		if _, ok, err := s.store.Snapshot("drain"); err != nil || !ok {
			t.Fatalf("snapshot after drain: ok %v, err %v; want the drained step's snapshot on disk", ok, err)
		}
	})
}
