package store

import (
	"container/list"
	"sync"

	"dew/internal/trace"
)

// The in-process tier: an LRU of decoded BlockStreams keyed by the
// same content-addressed keys as the disk entries, so repeated queries
// in one process skip even the DBS1 decode. Streams handed out are
// shared — the tier relies on the repo-wide invariant that replay
// paths consume streams immutably (the same invariant that lets sweep
// workers share one materialized stream). Capacity is an estimated
// byte budget; exceeding it evicts least-recently-used streams.

type memLRU struct {
	mu      sync.Mutex
	max     int64
	size    int64
	order   *list.List // Front is most recently used; values are *memEntry
	entries map[string]*list.Element
}

type memEntry struct {
	key  string
	bs   *trace.BlockStream
	size int64
}

func newMemLRU(max int64) *memLRU {
	return &memLRU{max: max, order: list.New(), entries: map[string]*list.Element{}}
}

// streamMemSize estimates a decoded stream's live footprint from its
// column lengths (slice headers and struct overhead folded into a flat
// constant — the estimate only has to be proportional, not exact).
func streamMemSize(bs *trace.BlockStream) int64 {
	const overhead = 96
	return 8*int64(len(bs.IDs)) + 4*int64(len(bs.Runs)) + 20*int64(len(bs.Kinds)) + overhead
}

func (m *memLRU) get(key string) *trace.BlockStream {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil
	}
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).bs
}

func (m *memLRU) put(key string, bs *trace.BlockStream) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.order.MoveToFront(el)
		return
	}
	e := &memEntry{key: key, bs: bs, size: streamMemSize(bs)}
	m.entries[key] = m.order.PushFront(e)
	m.size += e.size
	// Evict from the cold end; the just-inserted entry is at the front
	// and survives even when it alone exceeds the budget.
	for m.size > m.max && m.order.Len() > 1 {
		el := m.order.Back()
		victim := el.Value.(*memEntry)
		m.order.Remove(el)
		delete(m.entries, victim.key)
		m.size -= victim.size
	}
}
