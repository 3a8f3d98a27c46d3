package serve

import (
	"container/list"
	"sync"
)

// cacheEntry is one memoized response body. Keys embed the model version and
// a digest of the request body, so a hot-swap naturally invalidates (the old
// version's entries just age out of the LRU).
type cacheEntry struct {
	key  string
	body []byte
}

// lruCache is a fixed-capacity LRU over response bodies. Safe for concurrent
// use. Capacity ≤ 0 disables caching (Get always misses, Put drops).
type lruCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *cacheEntry
	m   map[string]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached body for key and whether it was present.
func (c *lruCache) Get(key string) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key, evicting the least-recent entry when full. The
// body is retained, not copied; callers must not mutate it afterwards.
func (c *lruCache) Put(key string, body []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).key)
	}
}
