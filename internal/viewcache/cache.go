// Package viewcache is a node's whole-lookup memo: per wavelet level, the
// entries and hop count a level search produced for an exact query sphere,
// LRU-bounded and valid only at the churn epoch it was recorded under
// (GetSearch has the soundness argument). It is what turns a repeat query
// from a flood of can_search RPCs into a map lookup; the views a lookup runs
// over are never cached — every one comes from the query's probe table
// (internal/node/probe.go).
//
// View, Cache.Put and Cache.Get — a per-level LRU of node views, the layer
// the memo used to sit on — are reached from nowhere in the serving stack and
// stay only because bench/layers.go times them; the next benchmark PR retires
// them with viewcache.get_hit_ns and viewcache.put_ns (ROADMAP "Benchmark v2").
package viewcache

import (
	"container/list"
	"sync"

	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/sim"
)

// Per level, the view LRU holds at most viewCapacity views and the lookup
// memo (GetSearch/PutSearch) at most memoCapacity searches, the least
// recently used evicted beyond them.
const (
	viewCapacity = 1024
	memoCapacity = 4096
)

// Options tunes one cache. The zero value is ready.
type Options struct {
	// Counters receives the cache telemetry ("cache.path_hit",
	// "cache.path_miss", "cache.path_evict" for the memo; "cache.hit",
	// "cache.miss", "cache.stale", "cache.evict" for the view LRU).
	// Optional.
	Counters *sim.Counters
}

// memoEntry is one memoized lookup: the full level-search result for an
// exact (key, radius), valid only at the epoch it was recorded.
type memoEntry struct {
	key     string
	entries []overlay.Entry
	hops    int
	epoch   uint64
	lruElem *list.Element
}

// levelCache is one level's lookup memo plus its view LRU.
type levelCache struct {
	// memo caches whole level-search results by encoded (key, radius); see
	// GetSearch for the epoch argument that makes this sound.
	memo    map[string]*memoEntry
	memoLRU *list.List // front = most recent

	entries map[int]*entry
	lru     *list.List
}

// Cache is a per-node, per-level lookup memo. Safe for concurrent use.
type Cache struct {
	opts             Options
	viewCap, memoCap int // viewCapacity and memoCapacity; tests shrink them

	mu     sync.Mutex
	levels []levelCache
}

// New builds a cache with one slot set per CAN level.
func New(levels int, opts Options) *Cache {
	c := &Cache{opts: opts, viewCap: viewCapacity, memoCap: memoCapacity, levels: make([]levelCache, levels)}
	c.Clear()
	return c
}

func (c *Cache) count(name string) {
	if c.opts.Counters != nil {
		c.opts.Counters.Add(name, 1)
	}
}

// Clear drops every memoized lookup (and cached view) across all levels —
// back to the cold-start state. The bench harness's cold phase uses it to
// measure first-touch cost on an otherwise warm cluster.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for l := range c.levels {
		c.levels[l] = levelCache{
			entries: map[int]*entry{},
			lru:     list.New(),
			memo:    map[string]*memoEntry{},
			memoLRU: list.New(),
		}
	}
}

// GetSearch probes the lookup memo: the entries and hop count a full level
// search produced for this exact encoded (key, radius), recorded at the
// current epoch. Sound on one repo invariant: the overlay state a can_search
// view carries — zones, neighbor table, owned/replica records — changes only
// through membership events (join split, leave handoff, crash takeover, zone
// broadcast, recovery merge); publishing items never touches it (the paper's
// stale-summary semantics, core.System.PostInsert). A level search is a
// deterministic function of the query sphere and the per-node views, and
// every membership event the coordinator can observe bumps its epoch — so
// within one epoch a repeat search would walk the same path, collect the same
// records, and charge the same hops. A memo recorded at an older epoch is
// dropped, never trusted. Streaming publish breaks the invariant (record
// deltas without a membership event), which is why a node that streams keeps
// no memo at all (node.Tuning.StreamPublish).
//
// Callers must treat the returned entries as read-only: the slice is shared
// between every repeat of the query within the epoch.
func (c *Cache) GetSearch(level int, key []byte, epoch uint64) ([]overlay.Entry, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := &c.levels[level]
	m := lc.memo[string(key)] // no-alloc map lookup
	if m == nil {
		c.count("cache.path_miss")
		return nil, 0, false
	}
	if m.epoch != epoch {
		lc.removeMemo(m)
		c.count("cache.path_miss")
		return nil, 0, false
	}
	lc.memoLRU.MoveToFront(m.lruElem)
	c.count("cache.path_hit")
	return m.entries, m.hops, true
}

// PutSearch memoizes one completed level search at the epoch it ran under.
// The caller is responsible for only recording searches whose epoch did not
// advance mid-run (compare the epoch before and after driving the machine).
func (c *Cache) PutSearch(level int, key []byte, entries []overlay.Entry, hops int, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := &c.levels[level]
	if m := lc.memo[string(key)]; m != nil {
		lc.removeMemo(m)
	}
	m := &memoEntry{key: string(key), entries: entries, hops: hops, epoch: epoch}
	m.lruElem = lc.memoLRU.PushFront(m)
	lc.memo[m.key] = m
	for lc.memoLRU.Len() > c.memoCap {
		victim := lc.memoLRU.Back().Value.(*memoEntry)
		lc.removeMemo(victim)
		c.count("cache.path_evict")
	}
}

func (lc *levelCache) removeMemo(m *memoEntry) {
	lc.memoLRU.Remove(m.lruElem)
	delete(lc.memo, m.key)
}

// ---- the view LRU bench/layers.go still times (see the package comment) ----

// Outcome classifies one cache probe.
type Outcome int

const (
	// Miss: nothing cached (or the entry expired) — fetch the view.
	Miss Outcome = iota
	// Hit: a view cached at the current epoch — use it, no RPC.
	Hit
	// Stale: a view cached at an older epoch — not to be trusted.
	Stale
)

// View is a cached node view plus a responder-side state version.
type View struct {
	route.NodeView
	Version uint64
}

type entry struct {
	id      int
	view    View
	epoch   uint64
	lruElem *list.Element
}

// Get probes the view LRU for node id's view at the given churn epoch. The
// View is meaningful for Hit and Stale; the error is always nil (a slot
// bench/layers.go still assigns).
func (c *Cache) Get(level, id int, epoch uint64) (View, Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := &c.levels[level]
	e := lc.entries[id]
	if e == nil {
		c.count("cache.miss")
		return View{}, Miss, nil
	}
	if e.epoch == epoch {
		lc.lru.MoveToFront(e.lruElem)
		c.count("cache.hit")
		return e.view, Hit, nil
	}
	c.count("cache.stale")
	return e.view, Stale, nil
}

// Put installs a freshly fetched view at the given epoch, evicting the
// least-recently-used entry beyond capacity.
func (c *Cache) Put(level, id int, v View, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := &c.levels[level]
	if e := lc.entries[id]; e != nil {
		lc.remove(e)
	}
	e := &entry{id: id, view: v, epoch: epoch}
	e.lruElem = lc.lru.PushFront(e)
	lc.entries[id] = e
	for lc.lru.Len() > c.viewCap {
		victim := lc.lru.Back().Value.(*entry)
		lc.remove(victim)
		c.count("cache.evict")
	}
}

// remove unlinks an entry from the level (both index and LRU list).
func (lc *levelCache) remove(e *entry) {
	lc.lru.Remove(e.lruElem)
	delete(lc.entries, e.id)
}
