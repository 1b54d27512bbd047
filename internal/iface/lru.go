package iface

import "container/list"

// lruCache is a size-bounded map with least-recently-used eviction: lookups
// and inserts both count as use, so the entries that keep answering
// interactions (the slider positions a user oscillates between) stay
// resident while stale drag states age out. The arbitrary-map-order
// eviction it replaces could evict the hottest entry at the cap.
//
// The key is any comparable type: the shared plan cache keys by 64-bit
// resolved-query hashes, tests by whatever is convenient. Not safe for
// concurrent use; callers hold their own lock.
type lruCache[K comparable, V any] struct {
	cap     int
	order   *list.List // front = most recently used
	entries map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	return &lruCache[K, V]{cap: capacity, order: list.New(), entries: map[K]*list.Element{}}
}

// get returns the entry and marks it most recently used.
func (c *lruCache[K, V]) get(k K) (V, bool) {
	if e, ok := c.entries[k]; ok {
		c.order.MoveToFront(e)
		return e.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or replaces the entry, marking it most recently used and
// evicting the least recently used entry when the cache is at capacity. It
// returns the value it displaced: the key's previous value, or the evicted
// entry's.
func (c *lruCache[K, V]) put(k K, v V) (old V, displaced bool) {
	if e, ok := c.entries[k]; ok {
		ent := e.Value.(*lruEntry[K, V])
		old, ent.val = ent.val, v
		c.order.MoveToFront(e)
		return old, true
	}
	if len(c.entries) >= c.cap {
		if back := c.order.Back(); back != nil {
			ent := back.Value.(*lruEntry[K, V])
			delete(c.entries, ent.key)
			c.order.Remove(back)
			old, displaced = ent.val, true
		}
	}
	c.entries[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	return old, displaced
}

// oldest calls fn on the entries from least to most recently used until fn
// returns false. fn must not add or remove entries.
func (c *lruCache[K, V]) oldest(fn func(V) bool) {
	for e := c.order.Back(); e != nil; e = e.Prev() {
		if !fn(e.Value.(*lruEntry[K, V]).val) {
			return
		}
	}
}

// len reports the number of resident entries.
func (c *lruCache[K, V]) len() int { return len(c.entries) }
