package serve

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for the limiter tests: all refill
// arithmetic becomes a pure function of the calls made, with zero wall-clock
// dependence.
type fakeClock struct {
	t time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func TestLimiterBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(2, 4, clk.Now) // 2 tokens/s, burst 4

	for i := 0; i < 4; i++ {
		if ok, _ := l.Allow("alice"); !ok {
			t.Fatalf("burst call %d rejected", i)
		}
	}
	ok, retryAfter := l.Allow("alice")
	if ok {
		t.Fatal("call past the burst admitted")
	}
	if want := 500 * time.Millisecond; retryAfter != want {
		t.Fatalf("Retry-After = %v, want %v (1 token at 2/s)", retryAfter, want)
	}

	// Half a second refills exactly one token.
	clk.Advance(500 * time.Millisecond)
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("call after refill rejected")
	}
	if ok, _ := l.Allow("alice"); ok {
		t.Fatal("second call after a one-token refill admitted")
	}
}

func TestLimiterDeterministicSchedule(t *testing.T) {
	// The exact same call sequence under the exact same fake clock must
	// produce the exact same admit/reject pattern — twice.
	run := func() []bool {
		clk := newFakeClock()
		l := NewLimiter(5, 2, clk.Now)
		var got []bool
		for i := 0; i < 40; i++ {
			ok, _ := l.Allow("c")
			got = append(got, ok)
			clk.Advance(70 * time.Millisecond)
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	admitted := 0
	for _, ok := range a {
		if ok {
			admitted++
		}
	}
	// 40 calls over 2.73s at 5/s with burst 2: the steady state admits at
	// the refill rate (0.35 tokens per 70ms step → every call admitted only
	// while burst lasts, then ~every third).
	if admitted >= 40 || admitted == 0 {
		t.Fatalf("admitted %d of 40, want a strict nontrivial subset", admitted)
	}
}

func TestLimiterRejectionSpendsNothing(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(1, 1, clk.Now)
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("first call rejected")
	}
	// Hammering while empty must not push the refill schedule back.
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("c"); ok {
			t.Fatalf("hammer call %d admitted", i)
		}
	}
	clk.Advance(time.Second)
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("refilled call rejected: rejections spent tokens")
	}
}

func TestLimiterPerClientIsolation(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(1, 1, clk.Now)
	if ok, _ := l.Allow("noisy"); !ok {
		t.Fatal("noisy's first call rejected")
	}
	if ok, _ := l.Allow("noisy"); ok {
		t.Fatal("noisy's second call admitted")
	}
	// A different client is untouched by noisy's empty bucket.
	if ok, _ := l.Allow("quiet"); !ok {
		t.Fatal("quiet rejected because of noisy's consumption")
	}
}

func TestLimiterDisabled(t *testing.T) {
	l := NewLimiter(0, 0, nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatal("disabled limiter rejected a call")
		}
	}
}

func TestLimiterEvictsRefilledBuckets(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(1000, 1, clk.Now)
	for i := 0; i < maxLimiterClients; i++ {
		l.Allow(fmt.Sprintf("c%d", i))
	}
	if got := l.Clients(); got != maxLimiterClients {
		t.Fatalf("Clients() = %d, want %d", got, maxLimiterClients)
	}
	// All buckets refill fully in 1ms at 1000/s; the next new client
	// triggers eviction of every one of them.
	clk.Advance(time.Millisecond)
	l.Allow("straw")
	if got := l.Clients(); got != 1 {
		t.Fatalf("Clients() after eviction = %d, want 1", got)
	}
}
