package node_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// This file is the acceptance suite of the lookup memo (internal/viewcache)
// and the fetch caches: the cache-on serving path must answer byte-identically
// to the in-process oracle on every topology churn can produce, while
// measurably removing can_search RPCs. The differential test sweeps seeded
// churned topologies; the takeover test aims a crash at a warm memo
// mid-query-stream and proves no lookup recorded under an older churn epoch
// was ever served again.

// cacheParams keeps each seeded topology small enough to sweep many of them.
func cacheParams(seed int64) experiments.Params {
	return experiments.Params{Peers: 8, ItemsPerPeer: 20, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: seed}
}

// queriesFor derives n in-domain query points with inter-item radii, like
// testQueries but for an arbitrary peer count.
func queriesFor(t *testing.T, sys *core.System, peers, n int) (qs [][]float64, radii []float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, itemsA := sys.PeerData(i % peers)
		_, itemsB := sys.PeerData((i + 3) % peers)
		if len(itemsA) == 0 || len(itemsB) == 0 {
			t.Fatalf("peer without items in test corpus")
		}
		q := itemsA[i%len(itemsA)]
		qs = append(qs, q)
		radii = append(radii, vec.Dist(q, itemsB[(2*i)%len(itemsB)]))
	}
	return qs, radii
}

// joinPoints draws one random join point per level.
func joinPoints(t *testing.T, sys *core.System, rng *rand.Rand) [][]float64 {
	t.Helper()
	points := make([][]float64, sys.Config().Levels)
	for l := range points {
		ov, ok := sys.Overlay(l).(*can.Overlay)
		if !ok {
			t.Fatalf("level %d overlay is %T", l, sys.Overlay(l))
		}
		pt := make([]float64, ov.Dim())
		for d := range pt {
			pt[d] = rng.Float64()
		}
		points[l] = pt
	}
	return points
}

// sumCounter totals one counter across every cluster node.
func sumCounter(cl *node.Cluster, name string) float64 {
	var total float64
	for _, nd := range cl.Nodes {
		total += nd.Counters()[name]
	}
	return total
}

// memoDelta runs fn and reports what it did to coordinator nd's lookup memo
// and how many can_search RPCs nd sent meanwhile.
func memoDelta(nd *node.Node, fn func()) (hits, misses, sent float64) {
	before := nd.Counters()
	fn()
	after := nd.Counters()
	return after["cache.path_hit"] - before["cache.path_hit"],
		after["cache.path_miss"] - before["cache.path_miss"],
		after["coord.can_search"] - before["coord.can_search"]
}

// epochsAdvanced reports whether the coordinator observed churn at every
// level since the given per-level epoch snapshot — after which none of the
// lookups it memoized before may be served (see viewcache.GetSearch).
func epochsAdvanced(nd *node.Node, before []uint64) bool {
	for l, e := range before {
		if nd.Membership().Epoch(l) <= e {
			return false
		}
	}
	return true
}

func epochSnapshot(nd *node.Node, levels int) []uint64 {
	out := make([]uint64, levels)
	for l := range out {
		out[l] = nd.Membership().Epoch(l)
	}
	return out
}

// TestCacheDifferential sweeps seeded churned topologies and proves the core
// invariant of the caches: with caching on, every range and k-nn answer is
// byte-identical to the in-process oracle — cold, warm, and after live
// mid-stream churn — and the warm pass issues zero can_search RPCs (every
// level search served from the lookup memo).
func TestCacheDifferential(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for s := 0; s < seeds; s++ {
		seed := int64(s + 1)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCacheDifferential(t, seed)
		})
	}
}

// runCacheDifferential drives the churned-topology differential for one
// seed: cold, warm, publish-interleaved, and post-churn passes must all
// answer byte-identically to the oracle, with the cache-coherence counters
// showing the cache did the work.
func runCacheDifferential(t *testing.T, seed int64) {
	params := cacheParams(seed)
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()

	// Pre-start churn: grow and shrink the oracle topology so the cluster
	// snapshot includes split zones, handoff takeovers, and a wiped crash
	// survivor — the shapes the caches must stay coherent over.
	rng := rand.New(rand.NewSource(seed * 31))
	const protected = 4 // founders: query coordinators, join bootstrap
	for i := 0; i < 2; i++ {
		if _, err := sys.JoinPeer(joinPoints(t, sys, rng)); err != nil {
			t.Fatalf("oracle join: %v", err)
		}
	}
	left := protected + rng.Intn(params.Peers-protected)
	if _, err := sys.LeavePeer(left); err != nil {
		t.Fatalf("oracle leave %d: %v", left, err)
	}
	failed := left
	for failed == left {
		failed = protected + rng.Intn(params.Peers-protected)
	}
	sys.FailPeer(failed)

	tr := transport.NewChan()
	defer tr.Close()
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" },
		transport.Policy{Timeout: 30e9}, membership.Options{}, node.Tuning{CacheViews: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	// The departed peer is off the network (its zones were handed away);
	// the failed one keeps serving its zone with wiped storage.
	cl.Nodes[left].Stop()

	client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
	ctx := context.Background()
	qs, radii := queriesFor(t, sys, protected, 6)

	checkOne := func(tag string, i, from int) {
		t.Helper()
		q := qs[i]
		wantR := sys.RangeQuery(from, q, radii[i], core.RangeOptions{})
		gotR, err := client.Range(ctx, cl.Addrs[from], q, radii[i], core.RangeOptions{})
		if err != nil {
			t.Fatalf("%s: range query %d from %d: %v", tag, i, from, err)
		}
		if !reflect.DeepEqual(normalizeRange(wantR), normalizeRange(gotR)) {
			t.Errorf("%s: range query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v",
				tag, i, from, wantR, gotR)
		}
		wantK := sys.KNNQuery(from, q, 5, core.KNNOptions{})
		gotK, err := client.KNN(ctx, cl.Addrs[from], q, 5, core.KNNOptions{})
		if err != nil {
			t.Fatalf("%s: knn query %d from %d: %v", tag, i, from, err)
		}
		if !reflect.DeepEqual(normalizeKNN(wantK), normalizeKNN(gotK)) {
			t.Errorf("%s: knn query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v",
				tag, i, from, wantK, gotK)
		}
	}
	check := func(tag string, froms []int) {
		t.Helper()
		for i := range qs {
			checkOne(tag, i, froms[i%len(froms)])
		}
	}

	founders := []int{0, 1, 2, 3}
	check("cold", founders)

	// Warm pass: identical queries on the now-populated memo. Byte-identical
	// again, and with no membership event in between every bit-identical
	// repeat sphere is answered from the lookup memo — not one can_search RPC
	// may cross the wire.
	before := sumCounter(cl, "rpc.can_search")
	check("warm", founders)
	if delta := sumCounter(cl, "rpc.can_search") - before; delta != 0 {
		t.Errorf("warm pass issued %v can_search RPCs, want 0 (every lookup memoized)", delta)
	}
	if sumCounter(cl, "cache.path_hit") == 0 {
		t.Error("warm pass recorded no lookup-memo hits for repeat spheres")
	}

	// Publish-interleaved passes: post-insert items near the query centers at
	// live holders between cached passes. No membership event fires, so the
	// epoch machinery is no help here — only the fetch-cache invalidation
	// protocol (subscription + synchronous broadcast + generation guard, see
	// fetchcache.go) can keep the memoized phase-two answers honest. Each new
	// item lands inside existing query spheres, so a stale cached fetch would
	// diverge from the oracle immediately.
	fetchHits := sumCounter(cl, "cache.fetch_local_hit")
	pubRng := rand.New(rand.NewSource(seed * 57))
	// Holders: any peer both sides agree is serving data — not the departed
	// one (off the network) and not the crash survivor (the oracle models a
	// dead device whose items are unreachable; the live stand-in answers
	// fetches, so new items published there would be visible only live).
	var holders []int
	for p := 0; p < params.Peers; p++ {
		if p != left && p != failed {
			holders = append(holders, p)
		}
	}
	for pi, nextID := 0, 9000; pi < 3; pi++ {
		holder := holders[pubRng.Intn(len(holders))]
		item := append([]float64(nil), qs[pubRng.Intn(len(qs))]...)
		for d := range item {
			item[d] += 0.02 * (pubRng.Float64() - 0.5)
		}
		sys.PostInsert(holder, nextID, item)
		if err := client.Publish(ctx, cl.Addrs[holder], nextID, item); err != nil {
			t.Fatalf("live publish %d at holder %d: %v", nextID, holder, err)
		}
		nextID++
		check(fmt.Sprintf("post-publish-%d", pi), founders)
	}
	if sumCounter(cl, "cache.fetch_local_hit") == fetchHits {
		t.Error("publish-interleaved passes never hit the coordinator fetch memo")
	}
	if sumCounter(cl, "cache.fetch_inval") == 0 {
		t.Error("publishes notified no fetch-cache subscribers")
	}

	// Live mid-stream churn: one protocol join and one graceful leave against
	// the running cluster (the oracle replays both). Coordinators that
	// observed the churn — epoch advanced at every level — must drop every
	// lookup they memoized before it and keep answering byte-identically.
	pre := make(map[int][]uint64, len(founders))
	for _, f := range founders {
		pre[f] = epochSnapshot(cl.Nodes[f], params.Levels)
	}
	points := joinPoints(t, sys, rng)
	id, err := sys.JoinPeer(points)
	if err != nil {
		t.Fatalf("oracle mid-stream join: %v", err)
	}
	nd, err := cl.Join(ctx, sys, cl.Addrs[0], points)
	if err != nil {
		t.Fatalf("live mid-stream join: %v", err)
	}
	if nd.Peer() != id {
		t.Fatalf("live joiner took id %d, oracle assigned %d", nd.Peer(), id)
	}
	victim := -1
	for v := params.Peers - 1; v >= protected; v-- {
		if v != left && v != failed {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Fatal("no leave victim available")
	}
	if _, err := sys.LeavePeer(victim); err != nil {
		t.Fatalf("oracle mid-stream leave: %v", err)
	}
	if err := cl.Nodes[victim].Leave(ctx); err != nil {
		t.Fatalf("live mid-stream leave: %v", err)
	}
	cl.Nodes[victim].Stop()

	var observers []int
	for _, f := range founders {
		if epochsAdvanced(cl.Nodes[f], pre[f]) {
			observers = append(observers, f)
		}
	}
	t.Logf("mid-stream churn observed by founders %v", observers)
	if len(observers) > 0 {
		// An observer's first repeat of a query it served warm in every pass
		// above must run the machine again (a memo miss that sends can_search),
		// never return the lookup recorded under the older epoch.
		var sent float64
		for _, f := range observers {
			for i := range qs {
				if founders[i%len(founders)] != f {
					continue
				}
				hits, misses, s := memoDelta(cl.Nodes[f], func() { checkOne("post-churn-repeat", i, f) })
				if hits != 0 || misses == 0 {
					t.Errorf("post-churn repeat of query %d at observer %d: %v memo hits, %v misses — a lookup from the older epoch was served", i, f, hits, misses)
				}
				sent += s
			}
		}
		if sent == 0 {
			t.Error("post-churn repeats of warm queries sent no can_search")
		}
		check("post-churn", observers)
	}
}

// TestCacheTakeoverMidStream crashes a node under a warm memo while a query
// stream is running: after the failure detectors elect takeovers and the
// cluster quiesces, every coordinator that observed the churn must answer
// byte-identically to the oracle that replayed the same crash — and must run
// its warm lookups again (counter assertion: epochs advanced, so not one
// pre-crash memo entry may be served). The stream is range queries only, so
// the k-nn lookups warmed before the crash are repeated for the first time by
// the acceptance sweep.
func TestCacheTakeoverMidStream(t *testing.T) {
	params := experiments.Params{Peers: 8, ItemsPerPeer: 30, Dim: 32, Levels: 3, ClustersPerPeer: 4, Seed: 7}
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()

	tr := transport.NewChan()
	defer tr.Close()
	mopts := membership.Options{
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  150 * time.Millisecond,
		FailAfter:     2,
	}
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" },
		transport.Policy{Timeout: 30e9}, mopts, node.Tuning{CacheViews: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx := context.Background()
	const protected = 4
	qs, radii := queriesFor(t, sys, protected, 6)
	client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
	founders := []int{0, 1, 2, 3}

	// Warm the founders' caches and pin the pre-crash baseline.
	for i, q := range qs {
		from := founders[i%len(founders)]
		want := sys.RangeQuery(from, q, radii[i], core.RangeOptions{})
		got, err := client.Range(ctx, cl.Addrs[from], q, radii[i], core.RangeOptions{})
		if err != nil {
			t.Fatalf("warmup range %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
			t.Errorf("warmup range %d from peer %d diverged", i, from)
		}
		wantK := sys.KNNQuery(from, q, 5, core.KNNOptions{})
		gotK, err := client.KNN(ctx, cl.Addrs[from], q, 5, core.KNNOptions{})
		if err != nil {
			t.Fatalf("warmup knn %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeKNN(wantK), normalizeKNN(gotK)) {
			t.Errorf("warmup knn %d from peer %d diverged", i, from)
		}
	}
	if sumCounter(cl, "cache.path_miss") == 0 {
		t.Fatal("warmup did not populate the lookup memo")
	}
	// Let the failure detectors refresh their cached self-reports from the
	// running topology before the crash: takeover elections vote with probe-
	// collected knowledge, and a crash in the first probe rounds would find
	// the electorate still ignorant (the soak quiesces between events for the
	// same reason).
	time.Sleep(20 * mopts.ProbeInterval)
	pre := make(map[int][]uint64, len(founders))
	for _, f := range founders {
		pre[f] = epochSnapshot(cl.Nodes[f], params.Levels)
	}
	// Query stream flows through the crash window; mid-takeover failures are
	// tolerated (a query can race the election), counted for the log.
	alive := make([]bool, params.Peers)
	for i := range alive {
		alive[i] = true
	}
	var issued, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			from := founders[rng.Intn(len(founders))]
			issued.Add(1)
			if _, err := client.Range(ctx, cl.Addrs[from], qs[i%len(qs)], radii[i%len(radii)], core.RangeOptions{}); err != nil {
				failed.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	victim := params.Peers - 1
	if _, err := sys.CrashPeer(victim); err != nil {
		t.Fatalf("oracle crash: %v", err)
	}
	cl.Nodes[victim].Stop()
	alive[victim] = false
	waitClusterQuiesce(t, "crash", cl, alive, params.Levels, mopts.ProbeInterval)
	close(stop)
	wg.Wait()
	t.Logf("query stream over crash: %d issued, %d failed mid-takeover", issued.Load(), failed.Load())

	var observers []int
	for _, f := range founders {
		if epochsAdvanced(cl.Nodes[f], pre[f]) {
			observers = append(observers, f)
		}
	}
	if len(observers) == 0 {
		t.Fatal("no founder observed the crash at every level — takeover did not propagate")
	}
	t.Logf("crash observed by founders %v", observers)

	var repeats int
	var sent float64
	for _, from := range observers {
		for i, q := range qs {
			wantR := sys.RangeQuery(from, q, radii[i], core.RangeOptions{})
			gotR, err := client.Range(ctx, cl.Addrs[from], q, radii[i], core.RangeOptions{})
			if err != nil {
				t.Fatalf("post-takeover range %d from %d: %v", i, from, err)
			}
			if !reflect.DeepEqual(normalizeRange(wantR), normalizeRange(gotR)) {
				t.Errorf("post-takeover range %d from peer %d diverged:\nsim:    %+v\nserved: %+v", i, from, wantR, gotR)
			}
			wantK := sys.KNNQuery(from, q, 5, core.KNNOptions{})
			var gotK core.KNNResult
			hits, misses, s := memoDelta(cl.Nodes[from], func() {
				gotK, err = client.KNN(ctx, cl.Addrs[from], q, 5, core.KNNOptions{})
			})
			if err != nil {
				t.Fatalf("post-takeover knn %d from %d: %v", i, from, err)
			}
			if !reflect.DeepEqual(normalizeKNN(wantK), normalizeKNN(gotK)) {
				t.Errorf("post-takeover knn %d from peer %d diverged:\nsim:    %+v\nserved: %+v", i, from, wantK, gotK)
			}
			if founders[i%len(founders)] != from {
				continue
			}
			// This observer memoized exactly this k-nn before the crash and
			// nothing has repeated it since.
			repeats++
			sent += s
			if hits != 0 || misses == 0 {
				t.Errorf("post-takeover repeat of knn %d at observer %d: %v memo hits, %v misses — a pre-crash lookup was served", i, from, hits, misses)
			}
		}
	}
	if repeats > 0 && sent == 0 {
		t.Error("post-takeover repeats of warm lookups sent no can_search")
	}
}
