package viewcache

import (
	"fmt"
	"sync"
	"testing"

	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/sim"
)

// capped is a cache whose levels hold views views and memos lookups.
func capped(levels, views, memos int, ctr *sim.Counters) *Cache {
	c := New(levels, Options{Counters: ctr})
	c.viewCap, c.memoCap = views, memos
	return c
}

func view(id int, version uint64) View {
	return View{NodeView: route.NodeView{ID: id}, Version: version}
}

func TestHitStale(t *testing.T) {
	var ctr sim.Counters
	c := New(2, Options{Counters: &ctr})

	if _, out, _ := c.Get(0, 3, 0); out != Miss {
		t.Fatalf("empty cache: outcome %v, want Miss", out)
	}
	c.Put(0, 3, view(3, 7), 0)
	v, out, _ := c.Get(0, 3, 0)
	if out != Hit || v.Version != 7 || v.ID != 3 {
		t.Fatalf("same-epoch probe: outcome %v view %+v", out, v)
	}
	// Epoch advanced: the entry must come back Stale, never Hit.
	if _, out, _ := c.Get(0, 3, 1); out != Stale {
		t.Fatalf("post-churn probe: outcome %v, want Stale", out)
	}
	// A fresh install at the new epoch replaces it.
	c.Put(0, 3, view(3, 8), 1)
	if v, out, _ := c.Get(0, 3, 1); out != Hit || v.Version != 8 {
		t.Fatalf("re-installed entry: outcome %v view %+v", out, v)
	}
	// Levels are independent.
	if _, out, _ := c.Get(1, 3, 0); out != Miss {
		t.Fatal("level 1 saw level 0's entry")
	}
	if ctr.Get("cache.stale") != 1 || ctr.Get("cache.hit") != 2 {
		t.Fatalf("counters: %v", ctr.Snapshot())
	}
}

func TestLRUEviction(t *testing.T) {
	var ctr sim.Counters
	c := capped(1, 2, memoCapacity, &ctr)
	c.Put(0, 1, view(1, 0), 0)
	c.Put(0, 2, view(2, 0), 0)
	c.Get(0, 1, 0) // touch 1: now 2 is the LRU victim
	c.Put(0, 3, view(3, 0), 0)
	if _, out, _ := c.Get(0, 2, 0); out != Miss {
		t.Fatal("LRU victim 2 still cached")
	}
	for _, id := range []int{1, 3} {
		if _, out, _ := c.Get(0, id, 0); out != Hit {
			t.Fatalf("entry %d evicted, want resident", id)
		}
	}
	if ctr.Get("cache.evict") != 1 {
		t.Fatalf("evictions: %v", ctr.Get("cache.evict"))
	}

	// Churn well beyond capacity: exactly the most recent entries remain, the
	// older ones evicted least-recent-first.
	c = capped(1, 3, memoCapacity, &ctr)
	for id := 0; id < 20; id++ {
		c.Put(0, id, view(id, 1), 0)
	}
	for id := 0; id < 20; id++ {
		want := Miss
		if id >= 17 {
			want = Hit
		}
		if _, out, _ := c.Get(0, id, 0); out != want {
			t.Fatalf("entry %d: outcome %v, want %v", id, out, want)
		}
	}
	if got := ctr.Get("cache.evict"); got != 1+17 {
		t.Fatalf("evictions %v, want 18", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := capped(2, 16, memoCapacity, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := (w + i) % 24
				l := i % 2
				switch i % 4 {
				case 0:
					c.Put(l, id, view(id, uint64(i)), uint64(i%3))
				case 1:
					c.Get(l, id, uint64(i%3))
				case 2:
					c.PutSearch(l, []byte{byte(id)}, nil, i, uint64(i%3))
				default:
					c.GetSearch(l, []byte{byte(id)}, uint64(i%3))
				}
			}
		}(w)
	}
	wg.Wait()
	for l := 0; l < 2; l++ {
		if n := len(c.levels[l].entries); n > 16 {
			t.Fatalf("level %d holds %d entries", l, n)
		}
	}
}

func TestCapacityDefaults(t *testing.T) {
	c := New(1, Options{})
	for i := 0; i < 1500; i++ {
		c.Put(0, i, view(i, 0), 0)
	}
	if n := len(c.levels[0].entries); n != viewCapacity {
		t.Fatalf("default capacity held %d entries, want %d", n, viewCapacity)
	}
}

func TestOutcomeString(t *testing.T) {
	// Guard the ordering bench/layers.go sums.
	for i, want := range []Outcome{Miss, Hit, Stale} {
		if int(want) != i {
			t.Fatalf("outcome %d reordered", i)
		}
	}
	_ = fmt.Sprintf("%d", Hit)
}

// TestLookupMemoIsEpochKeyed is the memo's whole contract: a recorded search
// comes back only for the same bytes at the same epoch, an older epoch's
// record is dropped on sight (not resurrected when asked at its own epoch
// again), and the memo is LRU-bounded.
func TestLookupMemoIsEpochKeyed(t *testing.T) {
	var ctr sim.Counters
	c := capped(2, viewCapacity, 2, &ctr)
	want := []overlay.Entry{{Key: []float64{0.5}, Radius: 0.1}}
	c.PutSearch(0, []byte("q"), want, 7, 3)
	got, hops, ok := c.GetSearch(0, []byte("q"), 3)
	if !ok || hops != 7 || len(got) != 1 || got[0].Radius != 0.1 {
		t.Fatalf("same-epoch probe: %v %d %v", got, hops, ok)
	}
	if _, _, ok := c.GetSearch(1, []byte("q"), 3); ok {
		t.Fatal("level 1 saw level 0's memo")
	}
	if _, _, ok := c.GetSearch(0, []byte("r"), 3); ok {
		t.Fatal("a different sphere hit")
	}
	if _, _, ok := c.GetSearch(0, []byte("q"), 4); ok {
		t.Fatal("memo from epoch 3 served at epoch 4")
	}
	if _, _, ok := c.GetSearch(0, []byte("q"), 3); ok {
		t.Fatal("dropped memo resurrected at its own epoch")
	}
	for _, k := range []string{"a", "b", "c"} {
		c.PutSearch(0, []byte(k), nil, 1, 4)
	}
	if _, _, ok := c.GetSearch(0, []byte("a"), 4); ok {
		t.Fatal("LRU victim still memoized")
	}
	if ctr.Get("cache.path_hit") != 1 || ctr.Get("cache.path_evict") != 1 {
		t.Fatalf("counters: %v", ctr.Snapshot())
	}
}

// TestClear returns the cache to the cold-start state: views and lookup memos
// all gone, across every level.
func TestClear(t *testing.T) {
	c := New(2, Options{})
	c.Put(0, 1, view(1, 1), 0)
	c.Put(1, 2, view(2, 1), 0)
	c.PutSearch(0, []byte("q"), nil, 4, 0)

	c.Clear()
	if _, out, _ := c.Get(0, 1, 0); out != Miss {
		t.Fatal("level 0 view survived Clear")
	}
	if _, out, _ := c.Get(1, 2, 0); out != Miss {
		t.Fatal("level 1 view survived Clear")
	}
	if _, _, ok := c.GetSearch(0, []byte("q"), 0); ok {
		t.Fatal("lookup memo survived Clear")
	}
}
