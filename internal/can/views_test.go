package can

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hyperm/internal/overlay"
	"hyperm/internal/route"
)

// checkKeptViews requires every node's kept neighbor views to equal views
// built afresh from its neighbor list and its neighbors' current zones — the
// invariant that lets liveView hand them out without rebuilding.
func checkKeptViews(t testing.TB, o *Overlay) {
	t.Helper()
	for _, n := range o.nodes {
		fresh := make([]route.NeighborView, len(n.neighbors))
		for i, id := range n.neighbors {
			fresh[i] = route.NeighborView{ID: id, Zones: o.nodes[id].zones}
		}
		if len(n.views) != len(fresh) || (len(fresh) > 0 && !reflect.DeepEqual(n.views, fresh)) {
			t.Fatalf("node %d (alive %v) keeps neighbor views %v, fresh ones are %v", n.id, n.alive, n.views, fresh)
		}
	}
}

// TestSearchSphereMatchesReferenceThroughChurn interleaves every kind of
// mutation — JoinNode, Leave, Crash, ClearNode and InsertSphere — and after
// each one checks the kept neighbor views and runs queries through both
// SearchSphere and the frozen reference, which reads neighbor lists and
// zones directly and so shares none of the kept views. A mutator that
// forgot to refresh them would route or flood over a stale neighborhood.
func TestSearchSphereMatchesReferenceThroughChurn(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(4)
		o, err := Build(Config{Nodes: 3 + rng.Intn(20), Dim: dim, Rng: rng})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		checkKeptViews(t, o)
		for step := 0; step < 60; step++ {
			op := "insert"
			switch rng.Intn(6) {
			case 0:
				op = "join"
				if _, err := o.JoinNode(randomKey(rng, dim)); err != nil {
					t.Fatalf("seed %d: JoinNode: %v", seed, err)
				}
			case 1, 2:
				id := rng.Intn(o.Size())
				if !o.Alive(id) || aliveCount(o) < 3 {
					continue
				}
				if rng.Intn(2) == 0 {
					op = "leave"
					_, err = o.Leave(id)
				} else {
					op = "crash"
					_, err = o.Crash(id)
				}
				if err != nil {
					t.Fatalf("seed %d: %s(%d): %v", seed, op, id, err)
				}
			case 3:
				op = "clear"
				o.ClearNode(rng.Intn(o.Size()))
			default:
				e := overlay.Entry{Key: randomKey(rng, dim), Payload: step}
				if rng.Intn(3) > 0 {
					e.Radius = rng.Float64() * 0.4
				}
				o.InsertSphere(aliveIDs(o)[rng.Intn(aliveCount(o))], e)
			}
			checkKeptViews(t, o)
			alive := aliveIDs(o)
			for q := 0; q < 3; q++ {
				radius := 0.0
				if rng.Intn(4) > 0 {
					radius = rng.Float64() * 0.6
				}
				checkSearchAgainstReference(t, o, alive[rng.Intn(len(alive))], randomKey(rng, dim), radius)
			}
			if t.Failed() {
				t.Fatalf("seed %d: divergence after step %d (%s)", seed, step, op)
			}
		}
	}
}

func aliveIDs(o *Overlay) []int {
	var ids []int
	for _, n := range o.nodes {
		if n.alive {
			ids = append(ids, n.id)
		}
	}
	return ids
}

// allocsOverlay is the fence shape: 64 nodes in 4 dimensions holding 480
// spheres.
func allocsOverlay(t testing.TB) *Overlay {
	o, err := Build(Config{Nodes: 64, Dim: 4, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 480; i++ {
		o.InsertSphere(rng.Intn(64), overlay.Entry{Key: randomKey(rng, 4), Radius: rng.Float64() * 0.2, Payload: i})
	}
	return o
}

// TestSearchSphereAllocs fences the simulator's per-visit garbage: a flood
// visit reuses the node's kept neighbor views and marks its id in the
// machine's open-addressing set, so a search's allocations are its
// machines, their sets' few growths and its result slice — not one per
// visit. A full flood of the 64-node overlay (65 hops, all 480 entries)
// makes 35 allocations and an r = 0.2 insert 11; one allocation per visit
// would take either far past its fence.
func TestSearchSphereAllocs(t *testing.T) {
	o := allocsOverlay(t)
	key := []float64{0.3, 0.6, 0.1, 0.8}
	entries, hops := o.SearchSphere(5, key, math.Sqrt(float64(o.Dim()))/2)
	if len(entries) != 480 || hops < 63 {
		t.Fatalf("full flood reached %d entries in %d hops; want all 480 over every node", len(entries), hops)
	}
	if got := testing.AllocsPerRun(20, func() {
		o.SearchSphere(5, key, math.Sqrt(float64(o.Dim()))/2)
	}); got > 40 {
		t.Errorf("full-flood SearchSphere made %v allocations, fence 40", got)
	}
	rng := rand.New(rand.NewSource(3))
	if got := testing.AllocsPerRun(50, func() {
		o.InsertSphere(rng.Intn(64), overlay.Entry{Key: key, Radius: 0.2})
	}); got > 16 {
		t.Errorf("r = 0.2 InsertSphere made %v allocations, fence 16", got)
	}
}
