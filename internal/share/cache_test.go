package share

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCachePutGetEviction(t *testing.T) {
	c := NewCache[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %v %v", v, ok)
	}
	c.Put("c", 3) // evicts "a" (oldest)
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("b = %v %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("c = %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Overwriting a key must not grow the order bookkeeping.
	c.Put("b", 20)
	if v, _ := c.Get("b"); v != 20 {
		t.Fatal("overwrite lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len after overwrite = %d, want 2", c.Len())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache[int](8)
	const goroutines = 12
	var leaders atomic.Int64
	var wg sync.WaitGroup
	vals := make([]int, goroutines)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, claim := c.GetOrClaim("k")
			if claim != nil {
				leaders.Add(1)
				claim.Publish(42)
				v = 42
			}
			vals[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if got := leaders.Load(); got != 1 {
		t.Fatalf("%d leaders for one key, want 1", got)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d, want 42", i, v)
		}
	}
}

func TestCacheAbandonElectsNewLeader(t *testing.T) {
	c := NewCache[int](8)
	_, claim := c.GetOrClaim("k")
	if claim == nil {
		t.Fatal("first caller did not become leader")
	}

	got := make(chan int, 1)
	go func() {
		v, cl2 := c.GetOrClaim("k")
		if cl2 != nil {
			// This goroutine became the next leader after the abandon.
			cl2.Publish(7)
			v = 7
		}
		got <- v
	}()
	claim.Abandon()
	if v := <-got; v != 7 {
		t.Fatalf("waiter saw %d, want 7", v)
	}
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Fatalf("cache holds %v %v, want 7", v, ok)
	}
	// Abandon after done is a no-op.
	claim.Abandon()
	claim.Publish(99)
	if v, _ := c.Get("k"); v != 7 {
		t.Fatal("done claim mutated the cache")
	}
}

// TestCacheConcurrentMixed exercises Get/Put/GetOrClaim from many goroutines
// for the race detector.
func TestCacheConcurrentMixed(t *testing.T) {
	c := NewCache[int](4)
	keys := []string{"a", "b", "c", "d", "e", "f"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				switch i % 3 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				default:
					if _, claim := c.GetOrClaim(k); claim != nil {
						if i%2 == 0 {
							claim.Publish(i)
						} else {
							claim.Abandon()
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
