package jobs

import (
	"container/list"
	"encoding/json"
	"sync"
)

// tier names the part of the result cache that answered a look-up.
type tier uint8

const (
	missed     tier = iota // neither tier holds the key
	fromMemory             // the LRU
	fromDisk               // the result store
)

// cache is the manager's one content-addressed result cache, mapping a
// Spec's Key to its result's JSON encoding: an in-memory LRU in front of
// the optional on-disk ResultStore. Repeated sweeps over the same
// (workload, size, seed, budget, GPU config) tuples hit it instead of
// re-simulating. Both tiers hold the same bytes the API serves, and only
// this type knows their order. Disk I/O never runs under its lock.
type cache struct {
	store *ResultStore // nil without a data directory

	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
}

type cacheEntry struct {
	key Key
	val json.RawMessage
}

// newCache builds a cache whose memory tier holds up to capacity entries
// (<= 0 disables it: every peek misses, every insert is dropped) in front
// of store, which may be nil.
func newCache(capacity int, store *ResultStore) *cache {
	return &cache{store: store, cap: capacity, ll: list.New(), items: map[Key]*list.Element{}}
}

// get tries memory, then disk; a disk hit warms memory.
func (c *cache) get(k Key) (json.RawMessage, tier) {
	if v, from := c.peek(k); from != missed || c.store == nil {
		return v, from
	}
	v, ok := c.store.Get(k)
	if !ok {
		return nil, missed
	}
	c.add(k, v)
	return v, fromDisk
}

// peek looks at memory only, marking a hit most recently used.
func (c *cache) peek(k Key) (json.RawMessage, tier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, missed
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, fromMemory
}

// put writes v to disk, then to memory, so a key memory has held and
// evicted is on disk. A failed disk write is counted by the store and
// otherwise ignored: a result is a pure function of its spec, so one the
// disk lacks is only re-run.
func (c *cache) put(k Key, v json.RawMessage) {
	if c.store != nil {
		_ = c.store.Put(k, v)
	}
	c.add(k, v)
}

// add inserts or refreshes a memory entry, evicting the least recently
// used one beyond capacity.
func (c *cache) add(k Key, v json.RawMessage) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = v
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}
