package serve

import (
	"container/list"
	"context"
	"sync"

	"ageguard/internal/conc"
	"ageguard/internal/obs"
)

// cache is the daemon's bounded in-memory LRU, keyed by namespaced
// strings ("lib|...", "nl|...", "cp|...", reply keys), with per-key
// singleflight: concurrent misses for one key run the fill function
// once and share its result. Every value is immutable once inserted
// (libraries, compiled netlists, critical-path delays, replies), so
// readers share it without a lock.
type cache struct {
	mu  sync.Mutex
	max int
	ll  *list.List               // front = most recently used
	m   map[string]*list.Element // key -> element holding *entry

	flight conc.Flight[any]

	hits, misses, shared, evictions *obs.Counter
	size                            *obs.Gauge
}

type entry struct {
	key string
	val any
}

func newCache(max int, reg *obs.Registry) *cache {
	if max <= 0 {
		max = 128
	}
	return &cache{
		max:       max,
		ll:        list.New(),
		m:         map[string]*list.Element{},
		hits:      reg.Counter("serve.cache.hits"),
		misses:    reg.Counter("serve.cache.misses"),
		shared:    reg.Counter("serve.cache.shared"),
		evictions: reg.Counter("serve.cache.evictions"),
		size:      reg.Gauge("serve.cache.size"),
	}
}

// get returns the cached value for key, filling it on miss. Only the
// singleflight leader runs fill (and counts the miss); callers that
// joined an in-flight fill count under serve.cache.shared. When the
// leader dies of its *own* deadline or cancellation while this caller's
// ctx is still live, conc.Flight hands the fill to this caller instead
// of failing it with the foreign error — a client with a short deadline
// must not poison the fill for everyone queued behind it. A leader whose
// ctx carries a set of failed fills (withFailedFills) in which key
// already failed returns that error instead of filling again.
func (c *cache) get(ctx context.Context, key string, fill func(context.Context) (any, error)) (any, error) {
	if v, ok := c.peek(key); ok {
		return v, nil
	}
	led := false
	v, err := c.flight.Do(ctx, key, func() (any, error) {
		led = true
		failed, _ := ctx.Value(failedFillsKey{}).(*sync.Map)
		if failed != nil {
			if err, ok := failed.Load(key); ok {
				return nil, err.(error)
			}
		}
		c.misses.Inc()
		v, err := fill(ctx)
		if err != nil {
			if failed != nil {
				failed.Store(key, err)
			}
			return nil, err
		}
		c.put(key, v)
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	if !led {
		c.shared.Inc()
	}
	return v, nil
}

// peek returns the cached value for key without filling on miss. A hit
// counts like any other; a miss counts nothing — peek callers fall back
// to the fill path, which attributes the miss to the key it fills.
func (c *cache) peek(key string) (any, bool) {
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	v := el.Value.(*entry).val
	c.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// put inserts (or refreshes) an entry, evicting from the cold end past
// capacity.
func (c *cache) put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The gauge must track every exit path, including the refresh return.
	defer func() { c.size.Set(float64(c.lenLocked())) }()
	if el, ok := c.m[key]; ok {
		el.Value.(*entry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&entry{key: key, val: v})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*entry).key)
		c.evictions.Inc()
	}
}

// lenLocked reports the entry count; the caller must hold c.mu.
func (c *cache) lenLocked() int { return c.ll.Len() }

// len reports the current entry count.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lenLocked()
}

// failedFillsKey is the ctx key of a request-scoped set of failed
// fills: a *sync.Map from LRU key to the error its fill failed with. A
// batch installs one (withFailedFills) and cache.get records every
// failed fill in it, so a fill that failed for one item is not re-run
// by later items of the same batch. The set dies with the request, so a
// failure never outlives the batch that saw it.
type failedFillsKey struct{}

func withFailedFills(ctx context.Context) context.Context {
	return context.WithValue(ctx, failedFillsKey{}, new(sync.Map))
}
