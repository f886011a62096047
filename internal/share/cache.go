package share

import (
	"sync"
	"sync/atomic"
)

// Cache is a bounded, copy-on-write key/value cache with single-flight
// claims. Get is lock-free (one atomic load plus one map read); Put and
// Publish copy the map, so the cache is meant for values that are expensive
// to compute and cheap to store — planning decisions.
//
// GetOrClaim adds the single-flight discipline campaigns in lockstep need:
// the first caller of a missing key becomes its leader and receives a Claim,
// every concurrent caller of the same key blocks until the leader publishes
// (and then gets the value) or abandons (and then contends to become the next
// leader). Without it, N replica campaigns reaching the same decision at the
// same time would all miss and all compute.
//
// Published values are immutable by contract: the cache hands the same value
// to every reader and never copies it.
type Cache[V any] struct {
	limit int
	state atomic.Pointer[cacheState[V]]

	mu      sync.Mutex
	flights map[string]chan struct{}
}

// cacheState is one immutable snapshot of the cache contents. order holds
// the keys oldest-insertion-first and drives eviction.
type cacheState[V any] struct {
	values map[string]V
	order  []string
}

// NewCache creates a cache holding at most limit entries; when an insert
// exceeds the limit the oldest-inserted entries are evicted.
func NewCache[V any](limit int) *Cache[V] {
	if limit < 1 {
		limit = 1
	}
	return &Cache[V]{limit: limit, flights: make(map[string]chan struct{})}
}

// Get returns the published value of the key, if any. Lock-free.
func (c *Cache[V]) Get(key string) (V, bool) {
	if st := c.state.Load(); st != nil {
		if v, ok := st.values[key]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Len returns the number of published entries.
func (c *Cache[V]) Len() int {
	if st := c.state.Load(); st != nil {
		return len(st.values)
	}
	return 0
}

// Put publishes a value, waking any claim waiters of the key. The value must
// be immutable from here on.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	c.putLocked(key, v)
	c.releaseFlightLocked(key)
	c.mu.Unlock()
}

// putLocked installs the value into a fresh state snapshot, evicting the
// oldest entries past the limit. Caller holds c.mu.
func (c *Cache[V]) putLocked(key string, v V) {
	old := c.state.Load()
	var next cacheState[V]
	if old == nil {
		next.values = make(map[string]V, 1)
	} else {
		next.values = make(map[string]V, len(old.values)+1)
		for k, val := range old.values {
			next.values[k] = val
		}
		next.order = append(next.order, old.order...)
	}
	if _, exists := next.values[key]; !exists {
		next.order = append(next.order, key)
	}
	next.values[key] = v
	for len(next.values) > c.limit && len(next.order) > 0 {
		evict := next.order[0]
		next.order = next.order[1:]
		delete(next.values, evict)
	}
	c.state.Store(&next)
}

// releaseFlightLocked closes and forgets the key's in-flight channel, if any.
// Caller holds c.mu.
func (c *Cache[V]) releaseFlightLocked(key string) {
	if ch, ok := c.flights[key]; ok {
		delete(c.flights, key)
		close(ch)
	}
}

// Claim is the leadership token of one in-flight key. Exactly one of Publish
// or Abandon must be called; until then every concurrent GetOrClaim of the
// key blocks.
type Claim[V any] struct {
	c    *Cache[V]
	key  string
	done bool
}

// Publish installs the computed value and wakes the key's waiters. The value
// must be immutable from here on.
func (cl *Claim[V]) Publish(v V) {
	if cl.done {
		return
	}
	cl.done = true
	cl.c.Put(cl.key, v)
}

// Abandon releases the claim without a value: waiters wake and contend to
// become the key's next leader. Use it on error paths.
func (cl *Claim[V]) Abandon() {
	if cl.done {
		return
	}
	cl.done = true
	cl.c.mu.Lock()
	cl.c.releaseFlightLocked(cl.key)
	cl.c.mu.Unlock()
}

// GetOrClaim returns the published value of the key (nil Claim), or makes the
// caller the key's leader (non-nil Claim, zero value). Callers finding the
// key in flight block until its leader publishes or abandons.
func (c *Cache[V]) GetOrClaim(key string) (V, *Claim[V]) {
	for {
		if v, ok := c.Get(key); ok {
			return v, nil
		}
		c.mu.Lock()
		// Re-check under the lock: a leader may have published between the
		// lock-free read and the acquisition.
		if st := c.state.Load(); st != nil {
			if v, ok := st.values[key]; ok {
				c.mu.Unlock()
				return v, nil
			}
		}
		ch, inFlight := c.flights[key]
		if !inFlight {
			c.flights[key] = make(chan struct{})
			c.mu.Unlock()
			var zero V
			return zero, &Claim[V]{c: c, key: key}
		}
		c.mu.Unlock()
		<-ch
	}
}
