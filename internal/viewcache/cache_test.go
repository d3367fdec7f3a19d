package viewcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hyperm/internal/route"
	"hyperm/internal/sim"
)

func view(id int, version uint64) View {
	return View{NodeView: route.NodeView{ID: id}, Version: version}
}

func TestHitStaleConfirm(t *testing.T) {
	var ctr sim.Counters
	c := New(2, Options{Capacity: 8, Counters: &ctr})

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
	// A version match refreshes the entry to the current epoch.
	if _, ok := c.Confirm(0, 3, 1); !ok {
		t.Fatal("Confirm lost the entry")
	}
	if _, out, _ := c.Get(0, 3, 1); out != Hit {
		t.Fatal("confirmed entry not Hit at the new epoch")
	}
	// Levels are independent.
	if _, out, _ := c.Get(1, 3, 0); out != Miss {
		t.Fatal("level 1 saw level 0's entry")
	}
	if ctr.Get("cache.stale") != 1 || ctr.Get("cache.hit") != 2 {
		t.Fatalf("counters: %v", ctr.Snapshot())
	}
}

func TestNegativeEntriesExpireWithEpoch(t *testing.T) {
	c := New(1, Options{})
	dead := errors.New("peer unreachable")
	c.PutNegative(0, 5, dead, 4)
	_, out, err := c.Get(0, 5, 4)
	if out != NegHit || !errors.Is(err, dead) {
		t.Fatalf("same-epoch negative probe: outcome %v err %v", out, err)
	}
	// Any membership event clears the verdict: the zone may have a new owner.
	if _, out, _ := c.Get(0, 5, 5); out != Miss {
		t.Fatalf("post-churn negative probe: outcome %v, want Miss", out)
	}
	if _, out, _ := c.Get(0, 5, 5); out != Miss {
		t.Fatal("expired negative entry was not dropped")
	}
}

func TestLRUEviction(t *testing.T) {
	var ctr sim.Counters
	c := New(1, Options{Capacity: 2, Counters: &ctr})
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
	c = New(1, Options{Capacity: 3, Counters: &ctr})
	for id := 0; id < 20; id++ {
		c.Put(0, id, view(id, 1), 0)
	}
	if got := c.Len(0); got != 3 {
		t.Fatalf("Len %d, want 3", got)
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
	c := New(2, Options{Capacity: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := (w + i) % 24
				l := i % 2
				switch i % 5 {
				case 0:
					c.Put(l, id, view(id, uint64(i)), uint64(i%3))
				case 1:
					c.Get(l, id, uint64(i%3))
				case 2:
					c.PutSearch(l, []byte{byte(id)}, nil, i, uint64(i%3))
				case 3:
					c.Confirm(l, id, uint64(i%3))
				default:
					c.GetSearch(l, []byte{byte(id)}, uint64(i%3))
				}
			}
		}(w)
	}
	wg.Wait()
	for l := 0; l < 2; l++ {
		if n := c.Len(l); n > 16 {
			t.Fatalf("level %d holds %d entries", l, n)
		}
	}
}

func TestCapacityDefaultsAndInvalidate(t *testing.T) {
	c := New(1, Options{})
	for i := 0; i < 1500; i++ {
		c.Put(0, i, view(i, 0), 0)
	}
	if n := c.Len(0); n != 1024 {
		t.Fatalf("default capacity held %d entries, want 1024", n)
	}
	c.Invalidate(0, 1499)
	if _, out, _ := c.Get(0, 1499, 0); out != Miss {
		t.Fatal("invalidated entry still cached")
	}
}

func TestOutcomeString(t *testing.T) {
	// Guard the ordering the node wiring switches on.
	for i, want := range []Outcome{Miss, Hit, Stale, NegHit} {
		if int(want) != i {
			t.Fatalf("outcome %d reordered", i)
		}
	}
	_ = fmt.Sprintf("%d", Hit)
}

// TestNegativeExpiryAfterRejoin covers the rejoin sequence: a peer crashes
// (negative verdict cached), its zone is taken over and the node later
// rejoins — each a membership event bumping the epoch — and the first
// post-rejoin probe must be a clean Miss followed by a normal install, not a
// lingering fail-fast.
func TestNegativeExpiryAfterRejoin(t *testing.T) {
	var ctr sim.Counters
	c := New(1, Options{Capacity: 8, Counters: &ctr})
	dead := errors.New("peer unreachable")

	c.PutNegative(0, 7, dead, 3) // crash observed at epoch 3
	if _, out, err := c.Get(0, 7, 3); out != NegHit || !errors.Is(err, dead) {
		t.Fatalf("same-epoch probe: outcome %v err %v", out, err)
	}
	// Takeover then rejoin: two membership events, epoch 3 -> 5. The stale
	// verdict must not survive either of them.
	if _, out, _ := c.Get(0, 7, 5); out != Miss {
		t.Fatal("negative verdict survived the rejoin epoch bumps")
	}
	// The expired negative entry is gone for good, not resurrected at the
	// old epoch.
	if _, out, _ := c.Get(0, 7, 3); out != Miss {
		t.Fatal("expired negative entry resurrected at its original epoch")
	}
	c.Put(0, 7, view(7, 12), 5) // the rejoined node's fresh view
	if v, out, _ := c.Get(0, 7, 5); out != Hit || v.Version != 12 {
		t.Fatalf("post-rejoin install: outcome %v view %+v", out, v)
	}
	if ctr.Get("cache.neg_hit") != 1 {
		t.Fatalf("neg_hit count %v, want 1", ctr.Get("cache.neg_hit"))
	}
}

// TestClear returns the cache to the cold-start state: views, negatives and
// lookup memos all gone, across every level.
func TestClear(t *testing.T) {
	c := New(2, Options{Capacity: 8})
	c.Put(0, 1, view(1, 1), 0)
	c.Put(1, 2, view(2, 1), 0)
	c.PutNegative(0, 3, errors.New("dead"), 0)
	c.PutSearch(0, []byte("q"), nil, 4, 0)

	c.Clear()
	for l := 0; l < 2; l++ {
		if c.Len(l) != 0 {
			t.Fatalf("level %d Len %d after Clear", l, c.Len(l))
		}
	}
	if _, out, _ := c.Get(0, 3, 0); out != Miss {
		t.Fatal("negative verdict survived Clear")
	}
	if _, _, ok := c.GetSearch(0, []byte("q"), 0); ok {
		t.Fatal("lookup memo survived Clear")
	}
}
