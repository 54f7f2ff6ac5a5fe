package meta

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// memo is a bounded singleflight map. The first caller for a key computes
// its value under a sync.Once; concurrent callers for the same key block
// on it and share the result instead of computing again. Past max entries
// (0 = unbounded) the least recently used entry is dropped. An evicted
// entry keeps working for callers already holding it — it just stops
// being findable.
type memo[K comparable, V any] struct {
	max int

	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	order   list.List // of K, most recently used first

	hits, misses, evictions atomic.Uint64
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
	elem *list.Element // recency position (guarded by memo.mu)
}

func newMemo[K comparable, V any](max int) *memo[K, V] {
	return &memo[K, V]{max: max, entries: make(map[K]*memoEntry[V])}
}

// get returns key's value, computing it on a miss. A hit refreshes the
// entry's recency; a miss that pushes the map past max evicts the
// coldest entry.
func (m *memo[K, V]) get(key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	e, hit := m.entries[key]
	if !hit {
		e = &memoEntry[V]{}
		m.entries[key] = e
		e.elem = m.order.PushFront(key)
		for m.max > 0 && len(m.entries) > m.max {
			m.removeLocked(m.order.Back().Value.(K))
			m.evictions.Add(1)
		}
	} else if e.elem != nil {
		m.order.MoveToFront(e.elem)
	}
	m.mu.Unlock()
	if hit {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	e.once.Do(func() {
		// Pre-set the error: if compute panics, the Once is spent and
		// later callers would otherwise read the zero value (for a score,
		// 0 — the best possible result). This way they get an error.
		e.err = fmt.Errorf("meta: computing %v panicked; entry poisoned until it is dropped", key)
		e.val, e.err = compute()
	})
	return e.val, e.err
}

// removeIf drops every entry whose key matches and returns how many.
func (m *memo[K, V]) removeIf(match func(K) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for k := range m.entries {
		if match(k) {
			m.removeLocked(k)
			n++
		}
	}
	return n
}

func (m *memo[K, V]) removeLocked(k K) {
	e := m.entries[k]
	delete(m.entries, k)
	if e.elem != nil {
		m.order.Remove(e.elem)
		e.elem = nil
	}
}

// len returns the number of resident entries.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
