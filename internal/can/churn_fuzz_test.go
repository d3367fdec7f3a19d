package can

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hyperm/internal/overlay"
	"hyperm/internal/route"
)

// Zone split/takeover invariants: after ANY sequence of joins, graceful
// leaves, and crashes, the alive zones must exactly tile the key space per
// level (no gap, no overlap), the neighbor relation must be the adjacency
// relation (symmetric, sorted), and every surviving cluster ref must have
// exactly one live owner — the invariants the live membership protocol
// relies on to route and answer correctly through churn.

// churnOps applies fuzzer-chosen join/leave/crash ops to an overlay built
// from topoSeed, returning the overlay, the inserted seqs, and whether any
// crash happened (crashes may legitimately lose records; other churn must
// not).
func churnOps(t testing.TB, topoSeed int64, ops []byte) (*Overlay, []int, bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(topoSeed))
	nodes := 4 + rng.Intn(8)
	dim := 1 + rng.Intn(3)
	o, err := Build(Config{Nodes: nodes, Dim: dim, Rng: rng})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var seqs []int
	inserts := 20 + rng.Intn(20)
	for i := 0; i < inserts; i++ {
		e := overlay.Entry{Key: randomKey(rng, dim), Payload: i}
		if rng.Intn(3) > 0 {
			e.Radius = rng.Float64() * 0.4
		}
		seqs = append(seqs, o.nextSeq)
		o.InsertSphere(rng.Intn(nodes), e)
	}

	sawCrash := false
	if len(ops) > 128 {
		ops = ops[:128]
	}
	for i := 0; i+1 < len(ops); i += 2 {
		opc, arg := ops[i], ops[i+1]
		switch opc % 4 {
		case 0, 1: // join at a point derived deterministically from arg
			if o.Size() >= 64 {
				continue
			}
			point := make([]float64, dim)
			for j := range point {
				_, point[j] = math.Modf(float64(arg+1) * 0.61803398875 * float64(j+1))
			}
			size := o.Size()
			if _, err := o.JoinNode(point); errors.Is(err, route.ErrZoneTooSmall) {
				// Joins piled into one zone until its side ran out of
				// float64s: refused, nobody admitted.
				if o.Size() != size {
					t.Fatalf("refused JoinNode(%v) grew the overlay to %d nodes", point, o.Size())
				}
			} else if err != nil {
				t.Fatalf("JoinNode(%v): %v", point, err)
			}
		case 2: // graceful leave
			id := int(arg) % o.Size()
			if !o.Alive(id) || aliveCount(o) < 2 {
				continue
			}
			if _, err := o.Leave(id); err != nil {
				t.Fatalf("Leave(%d): %v", id, err)
			}
		case 3: // crash with neighbor takeover
			id := int(arg) % o.Size()
			if !o.Alive(id) || aliveCount(o) < 2 {
				continue
			}
			if _, err := o.Crash(id); err != nil {
				t.Fatalf("Crash(%d): %v", id, err)
			}
			sawCrash = true
		}
	}
	return o, seqs, sawCrash
}

func aliveCount(o *Overlay) int {
	n := 0
	for _, m := range o.nodes {
		if m.alive {
			n++
		}
	}
	return n
}

// checkChurnInvariants asserts the full invariant set on a post-churn
// overlay.
func checkChurnInvariants(t testing.TB, o *Overlay, seqs []int, sawCrash bool) {
	t.Helper()
	var zoneSets [][]Zone
	for _, n := range o.nodes {
		if n.alive {
			zoneSets = append(zoneSets, n.zones)
		}
	}
	if !route.VerifyTiling(zoneSets) {
		t.Fatalf("alive zones do not tile the key space: %v", zoneSets)
	}

	for _, n := range o.nodes {
		if !n.alive {
			if len(n.neighbors) != 0 || len(n.zones) != 0 || len(n.owned)+len(n.replicas) != 0 {
				t.Fatalf("dead node %d retains state", n.id)
			}
			continue
		}
		if !sort.IntsAreSorted(n.neighbors) {
			t.Fatalf("node %d neighbor list %v not sorted", n.id, n.neighbors)
		}
		for _, m := range o.nodes {
			if m.id == n.id {
				continue
			}
			has := contains(n.neighbors, m.id)
			adj := m.alive && nodesAdjacent(n, m)
			if has != adj {
				t.Fatalf("node %d: neighbor(%d)=%v but adjacency=%v", n.id, m.id, has, adj)
			}
		}
	}

	owners := map[int]int{}
	for _, n := range o.nodes {
		if !n.alive {
			continue
		}
		for _, rec := range n.owned {
			if !n.containsPoint(rec.Entry.Key) {
				t.Fatalf("node %d owns seq %d whose centroid %v is outside its zones", n.id, rec.Seq, rec.Entry.Key)
			}
			owners[rec.Seq]++
		}
		for _, rec := range n.replicas {
			if !n.intersectsSphere(rec.Entry.Key, rec.Entry.Radius) {
				t.Fatalf("node %d replicates seq %d whose sphere misses its zones", n.id, rec.Seq)
			}
		}
	}
	for seq, c := range owners {
		if c != 1 {
			t.Fatalf("seq %d owned by %d nodes, want exactly 1", seq, c)
		}
	}
	for _, n := range o.nodes {
		if !n.alive {
			continue
		}
		for _, rec := range n.replicas {
			if owners[rec.Seq] == 0 {
				t.Fatalf("node %d holds an orphan replica of seq %d (no live owner)", n.id, rec.Seq)
			}
		}
	}
	if !sawCrash {
		for _, seq := range seqs {
			if owners[seq] != 1 {
				t.Fatalf("seq %d lost without any crash (owners=%d)", seq, owners[seq])
			}
		}
	}
}

// TestZoneSplitTakeoverInvariants pins the invariant check on deterministic
// schedules so plain `go test` exercises it without the fuzzer.
func TestZoneSplitTakeoverInvariants(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		ops := make([]byte, 48)
		rng.Read(ops)
		o, seqs, sawCrash := churnOps(t, seed, ops)
		checkChurnInvariants(t, o, seqs, sawCrash)
	}
}

// TestJoinNodeRefusesZoneTooSmall joins at one point until the zone under it
// has no float64 left to halve at: that join fails with route.ErrZoneTooSmall,
// admits nobody, and leaves every invariant standing — as do joins elsewhere
// afterwards.
func TestJoinNodeRefusesZoneTooSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o, err := Build(Config{Nodes: 3, Dim: 2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	for i := 0; i < 10; i++ {
		seqs = append(seqs, o.nextSeq)
		o.InsertSphere(i%3, overlay.Entry{Key: randomKey(rng, 2), Radius: 0.2 * rng.Float64(), Payload: i})
	}
	point := []float64{0.7, 0.3}
	for joins := 0; ; joins++ {
		if joins > 256 {
			t.Fatal("256 joins at one point were all granted")
		}
		size := o.Size()
		if _, err = o.JoinNode(point); err != nil {
			if !errors.Is(err, route.ErrZoneTooSmall) || o.Size() != size {
				t.Fatalf("join %d: %v (overlay %d -> %d nodes)", joins, err, size, o.Size())
			}
			break
		}
	}
	checkChurnInvariants(t, o, seqs, false)
	if _, err := o.JoinNode([]float64{0.2, 0.9}); err != nil {
		t.Fatalf("join elsewhere after the refusal: %v", err)
	}
	checkChurnInvariants(t, o, seqs, false)
}

// FuzzZoneSplitTakeover lets the fuzzer pick both the base topology and the
// churn schedule. testdata/fuzz/FuzzZoneSplitTakeover/split-at-float64-floor
// is the schedule that joins ~57 times into one zone (see route.SplitZone).
func FuzzZoneSplitTakeover(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 2, 1, 3, 0})
	f.Add(int64(7), []byte{1, 200, 2, 5, 3, 5, 0, 9, 3, 1})
	f.Add(int64(42), []byte{})
	f.Fuzz(func(t *testing.T, topoSeed int64, ops []byte) {
		o, seqs, sawCrash := churnOps(t, topoSeed, ops)
		checkChurnInvariants(t, o, seqs, sawCrash)
	})
}
