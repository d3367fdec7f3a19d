// Package viewcache is the per-node cache of overlay views that turns repeat
// lookups from O(hops·zones) RPCs into O(1): a per-level LRU of full
// route.NodeViews keyed by node id, with churn-epoch invalidation and negative
// caching for dead peers.
//
// Soundness rests on one repo invariant: the overlay state a can_search view
// carries — zones, neighbor table, owned/replica records — changes *only*
// through membership events (join split, leave handoff, crash takeover, zone
// broadcast, recovery merge). Publishing new items never touches it (the
// paper's stale-summary semantics, core.System.PostInsert). So:
//
//   - every view is stamped with the responder's per-level state Version
//     (bumped on each of its own mutations) and the coordinator's per-level
//     churn Epoch (bumped on every membership event the coordinator observes);
//   - a cached view whose epoch is current is trusted outright — no
//     membership event was observed since it was fetched, so the responder's
//     state cannot have changed in a way this node could ever learn about;
//   - a view from an older epoch is *revalidated*, never trusted: a cheap
//     view_version RPC compares the responder's current Version, refreshing
//     the entry on a match and refetching on a mismatch.
//
// Either way the coordinator feeds the routing machines exactly the view a
// direct can_search would return, so cached answers are byte-identical to the
// uncached serial reference — stale entries can cost an extra RPC, never a
// wrong result (the differential test in internal/node proves it across
// seeded churned topologies).
//
// Negative entries memoize unreachable peers within a single epoch: a flood
// that lost a wave to a crashed node should not re-dial it on the very next
// query, but any membership event clears the verdict (the peer may have been
// replaced).
package viewcache

import (
	"container/list"
	"sync"

	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/sim"
)

// Outcome classifies one cache probe.
type Outcome int

const (
	// Miss: nothing cached (or the entry expired) — fetch the view.
	Miss Outcome = iota
	// Hit: a view cached at the current epoch — use it, no RPC.
	Hit
	// Stale: a view cached at an older epoch — revalidate its version
	// before use, never trust it.
	Stale
	// NegHit: a failure cached at the current epoch — fail fast.
	NegHit
)

// View is a cached node view plus the responder-side state version it was
// fetched at (the revalidation token).
type View struct {
	route.NodeView
	Version uint64
}

// Options tunes one cache. The zero value gets defaults from New.
type Options struct {
	// Capacity bounds the number of entries per level (LRU eviction beyond
	// it). Default 1024.
	Capacity int
	// PathCapacity bounds the per-level lookup memo (GetSearch/PutSearch),
	// LRU-evicted beyond it. Default 4096.
	PathCapacity int
	// Counters receives the cache telemetry ("cache.hit", "cache.miss",
	// "cache.stale", "cache.neg_hit", "cache.evict", "cache.path_hit",
	// "cache.path_miss", "cache.path_evict").
	// Optional.
	Counters *sim.Counters
}

type entry struct {
	id      int
	view    View
	err     error // non-nil: negative entry (view is zero)
	epoch   uint64
	lruElem *list.Element
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

// levelCache is one level's entries plus its lookup memo.
type levelCache struct {
	entries map[int]*entry
	lru     *list.List // front = most recent
	// memo caches whole level-search results by encoded (key, radius); see
	// GetSearch for the epoch argument that makes this sound.
	memo    map[string]*memoEntry
	memoLRU *list.List
}

// Cache is a per-node, per-level view cache. Safe for concurrent use.
type Cache struct {
	opts Options

	mu     sync.Mutex
	levels []levelCache
}

// New builds a cache with one slot set per CAN level.
func New(levels int, opts Options) *Cache {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	if opts.PathCapacity <= 0 {
		opts.PathCapacity = 4096
	}
	c := &Cache{opts: opts, levels: make([]levelCache, levels)}
	c.Clear()
	return c
}

func (c *Cache) count(name string) {
	if c.opts.Counters != nil {
		c.opts.Counters.Add(name, 1)
	}
}

// Get probes the cache for node id's view at the coordinator's current churn
// epoch. The returned error is only meaningful for NegHit (the memoized
// failure); the View only for Hit and Stale.
func (c *Cache) Get(level, id int, epoch uint64) (View, Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := &c.levels[level]
	e := lc.entries[id]
	if e == nil {
		c.count("cache.miss")
		return View{}, Miss, nil
	}
	if e.err != nil {
		// Negative entries are valid within their epoch only: any observed
		// membership event may have replaced the dead peer's zone.
		if e.epoch == epoch {
			c.count("cache.neg_hit")
			return View{}, NegHit, e.err
		}
		lc.remove(e)
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

// Confirm refreshes an entry after a successful version match (view_version
// returned the cached Version): its epoch advances to the current one and the
// view is returned for use. ok is false when the entry vanished concurrently
// (evicted by another lookup) — treat as a miss.
func (c *Cache) Confirm(level, id int, epoch uint64) (View, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := &c.levels[level]
	e := lc.entries[id]
	if e == nil || e.err != nil {
		return View{}, false
	}
	e.epoch = epoch
	lc.lru.MoveToFront(e.lruElem)
	return e.view, true
}

// Put installs a freshly fetched view at the given epoch, evicting the
// least-recently-used entry beyond capacity.
func (c *Cache) Put(level, id int, v View, epoch uint64) {
	c.put(level, id, v, nil, epoch)
}

// PutNegative memoizes a fetch failure (an unreachable peer) at the given
// epoch.
func (c *Cache) PutNegative(level, id int, err error, epoch uint64) {
	c.put(level, id, View{}, err, epoch)
}

// Clear drops every cached view, negative verdict and memoized lookup across
// all levels — back to the cold-start state. The bench harness's cold phase
// uses it to measure first-touch cost on an otherwise warm cluster.
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

func (c *Cache) put(level, id int, v View, err error, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := &c.levels[level]
	if e := lc.entries[id]; e != nil {
		lc.remove(e)
	}
	e := &entry{id: id, view: v, err: err, epoch: epoch}
	e.lruElem = lc.lru.PushFront(e)
	lc.entries[id] = e
	for lc.lru.Len() > c.opts.Capacity {
		victim := lc.lru.Back().Value.(*entry)
		lc.remove(victim)
		c.count("cache.evict")
	}
}

// Invalidate drops node id's entry (version mismatch, or an RPC observed the
// peer in a state that contradicts the cache).
func (c *Cache) Invalidate(level, id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := &c.levels[level]
	if e := lc.entries[id]; e != nil {
		lc.remove(e)
	}
}

// remove unlinks an entry from the level (both index and LRU list).
func (lc *levelCache) remove(e *entry) {
	lc.lru.Remove(e.lruElem)
	delete(lc.entries, e.id)
}

// Len returns the number of entries cached at a level.
func (c *Cache) Len(level int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.levels[level].entries)
}

// GetSearch probes the lookup memo: the entries and hop count a full level
// search produced for this exact encoded (key, radius), recorded at the
// current epoch. Sound for the same reason same-epoch view hits are: a level
// search is a deterministic function of the query sphere and the per-node
// views, views mutate only through membership events, and every observable
// membership event bumps the epoch — so within one epoch a repeat search
// would walk the same path, collect the same records, and charge the same
// hops. A memo recorded at an older epoch is dropped, never trusted (unlike
// views there is no cheap single-peer revalidation for a whole path).
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
	for lc.memoLRU.Len() > c.opts.PathCapacity {
		victim := lc.memoLRU.Back().Value.(*memoEntry)
		lc.removeMemo(victim)
		c.count("cache.path_evict")
	}
}

func (lc *levelCache) removeMemo(m *memoEntry) {
	lc.memoLRU.Remove(m.lruElem)
	delete(lc.memo, m.key)
}
