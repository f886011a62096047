// Package share is the cross-campaign decision cache: a bounded key/value
// cache with single-flight claims, which campaigns in one share group use to
// adopt each other's planning decisions. Published values are immutable by
// contract; the cache itself is one mutex around one map.
package share

import "sync"

// Cache is a bounded FIFO key/value cache with single-flight claims, meant
// for values that are expensive to compute and cheap to store — planning
// decisions.
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

	mu      sync.Mutex
	values  map[string]V
	order   []string // keys, oldest insertion first: the eviction queue
	flights map[string]chan struct{}
}

// NewCache creates a cache holding at most limit entries; when an insert
// exceeds the limit the oldest-inserted entries are evicted.
func NewCache[V any](limit int) *Cache[V] {
	if limit < 1 {
		limit = 1
	}
	return &Cache[V]{limit: limit, values: make(map[string]V), flights: make(map[string]chan struct{})}
}

// Get returns the published value of the key, if any.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.values[key]
	return v, ok
}

// Len returns the number of published entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.values)
}

// Put publishes a value, waking any claim waiters of the key. The value must
// be immutable from here on.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.values[key]; !exists {
		c.order = append(c.order, key)
	}
	c.values[key] = v
	for len(c.values) > c.limit {
		delete(c.values, c.order[0])
		c.order = c.order[1:]
	}
	c.releaseFlightLocked(key)
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
		c.mu.Lock()
		if v, ok := c.values[key]; ok {
			c.mu.Unlock()
			return v, nil
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
