package query

import (
	"container/list"
	"sync"
)

// cache is a small mutex-guarded LRU holding whole encoded response
// bodies (see encodeEnvelope): a hit is written as it is. Keys embed the
// version of the one home the answer is about (store.HomeVersion; the
// home list embeds store.Generation), so an entry can never serve an
// answer from before a newly accepted point of that home — invalidation
// is free, and a point for one home leaves every other home's entries
// alone.
type cache struct {
	mu  sync.Mutex
	max int
	ll  *list.List               // front = most recent
	m   map[string]*list.Element // key -> element holding *cacheEntry
}

type cacheEntry struct {
	key string
	val []byte
}

func newCache(max int) *cache {
	return &cache{max: max, ll: list.New(), m: make(map[string]*list.Element, max)}
}

func (c *cache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *cache) put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// len reports the current entry count (tests only).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
