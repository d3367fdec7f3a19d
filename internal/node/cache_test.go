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

// This file is the acceptance suite of the coordinator caches — the answer
// memo with its kept plans, and the fetch caches: the cache-on serving path
// must answer byte-identically to the in-process oracle on every topology
// churn can produce, while measurably removing can_search RPCs. The
// differential test sweeps seeded churned topologies; the takeover test aims
// a crash at a warm memo mid-query-stream and proves no plan built under an
// older churn epoch was ever served again.

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

// answerDelta runs fn and reports what it did to coordinator nd's answer memo
// — hits, and misses that resumed over a kept plan — and how many can_search
// RPCs nd sent meanwhile.
func answerDelta(nd *node.Node, fn func()) (hits, resumes, sent float64) {
	before := nd.Counters()
	fn()
	after := nd.Counters()
	return after[ctrAnswerHit] - before[ctrAnswerHit],
		after[ctrAnswerResume] - before[ctrAnswerResume],
		after["coord.can_search"] - before["coord.can_search"]
}

// memoTally sums answerDelta over a stretch of askings: the hits, the resumes
// and what they sent, and what the askings that planned afresh sent.
type memoTally struct {
	hits, resumes, resumeSent, fresh, freshSent float64
}

func (tl *memoTally) add(nd *node.Node, fn func()) {
	hits, resumes, sent := answerDelta(nd, fn)
	switch {
	case hits > 0:
		tl.hits += hits
	case resumes > 0:
		tl.resumes += resumes
		tl.resumeSent += sent
	default:
		tl.fresh++
		tl.freshSent += sent
	}
}

// moved lists the nodes of ids whose churn epoch is no longer the one in
// before.
func moved(cl *node.Cluster, ids []int, before map[int]uint64) []int {
	var out []int
	for _, f := range ids {
		if cl.Nodes[f].Membership().Epoch() != before[f] {
			out = append(out, f)
		}
	}
	return out
}

// epochs reads the churn epoch of every node of ids.
func epochs(cl *node.Cluster, ids []int) map[int]uint64 {
	out := make(map[int]uint64, len(ids))
	for _, f := range ids {
		out[f] = cl.Nodes[f].Membership().Epoch()
	}
	return out
}

// TestCacheDifferential sweeps seeded churned topologies and proves the core
// invariant of the caches: with caching on, every range and k-nn answer is
// byte-identical to the in-process oracle — cold, warm, and after live
// mid-stream churn — the warm pass issues zero can_search RPCs (every answer
// served from the answer memo), an answer a publish retired resumes over its
// plan without one, and after an epoch change no plan is resumed.
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

	// tl tallies what the coordinators' answer memos do with every asking.
	var tl memoTally
	checkOne := func(tag string, i, from int) {
		t.Helper()
		q := qs[i]
		wantR := sys.RangeQuery(from, q, radii[i], core.RangeOptions{})
		var gotR core.RangeResult
		var err error
		tl.add(cl.Nodes[from], func() { gotR, err = client.Range(ctx, cl.Addrs[from], q, radii[i], core.RangeOptions{}) })
		if err != nil {
			t.Fatalf("%s: range query %d from %d: %v", tag, i, from, err)
		}
		if !reflect.DeepEqual(normalizeRange(wantR), normalizeRange(gotR)) {
			t.Errorf("%s: range query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v",
				tag, i, from, wantR, gotR)
		}
		wantK := sys.KNNQuery(from, q, 5, core.KNNOptions{})
		var gotK core.KNNResult
		tl.add(cl.Nodes[from], func() { gotK, err = client.KNN(ctx, cl.Addrs[from], q, 5, core.KNNOptions{}) })
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
	// again, and with no membership event or publish in between every repeat
	// is answered from the answer memo, or resumed over its plan where a
	// contacted peer is gone — not one can_search RPC may cross the wire.
	before := sumCounter(cl, "rpc.can_search")
	tl = memoTally{}
	check("warm", founders)
	if delta := sumCounter(cl, "rpc.can_search") - before; delta != 0 {
		t.Errorf("warm pass issued %v can_search RPCs, want 0 (every answer memoized)", delta)
	}
	if tl.hits+tl.resumes == 0 || tl.fresh != 0 || tl.resumeSent != 0 {
		t.Errorf("warm pass: %v answer-memo hits, %v resumes sending %v can_search, %v fresh plans; want no fresh plan and none sent", tl.hits, tl.resumes, tl.resumeSent, tl.fresh)
	}

	// Publish-interleaved passes: post-insert items near the query centers at
	// live holders between cached passes. No membership event fires, so the
	// epoch machinery is no help here — only the fetch-cache invalidation
	// protocol (subscription + synchronous broadcast + generation guard, see
	// fetchcache.go) can keep the memoized phase-two answers honest. Each new
	// item lands inside existing query spheres, so a stale cached fetch would
	// diverge from the oracle immediately. A notified coordinator keeps the
	// plans of the answers it drops, so their next asking resumes at
	// retrieval: no can_search.
	fetchHits := sumCounter(cl, "cache.fetch_local_hit")
	tl = memoTally{}
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
	if tl.resumes == 0 || tl.resumeSent != 0 || tl.fresh != 0 {
		t.Errorf("publish-interleaved passes: %v resumes sending %v can_search, %v fresh plans; want resumes, none sent, no fresh plan", tl.resumes, tl.resumeSent, tl.fresh)
	}

	// Live mid-stream churn: one protocol join and one graceful leave against
	// the running cluster (the oracle replays both). Coordinators that
	// observed the churn — their epoch moved — must drop every answer and plan
	// they memoized before it and keep answering byte-identically.
	pre := epochs(cl, founders)
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

	observers := moved(cl, founders, pre)
	t.Logf("mid-stream churn observed by founders %v", observers)
	if len(observers) > 0 {
		// An observer's first repeat of a query it served warm in every pass
		// above must plan afresh (a miss that sends can_search), never return
		// an answer or resume a plan from the older epoch.
		tl = memoTally{}
		for _, f := range observers {
			for i := range qs {
				if founders[i%len(founders)] == f {
					checkOne("post-churn-repeat", i, f)
				}
			}
		}
		if tl.hits != 0 || tl.resumes != 0 {
			t.Errorf("post-churn repeats at observers %v: %v answer-memo hits, %v resumes — an answer or plan from the older epoch was served", observers, tl.hits, tl.resumes)
		}
		if tl.freshSent == 0 {
			t.Error("post-churn repeats of warm queries sent no can_search")
		}
		check("post-churn", observers)
	}
}

// TestCacheTakeoverMidStream crashes a node under a warm memo while a query
// stream is running: after the failure detectors elect takeovers and the
// cluster quiesces, every coordinator that observed the churn must answer
// byte-identically to the oracle that replayed the same crash — and must plan
// its warm queries again (counter assertion: its epoch moved, so not one
// pre-crash answer or plan may be served). The stream is range queries only,
// so the k-nn answers warmed before the crash are repeated for the first time
// by the acceptance sweep.
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
	if sumCounter(cl, ctrAnswerMiss) == 0 {
		t.Fatal("warmup did not populate the answer memo")
	}
	// Let the failure detectors refresh their cached self-reports from the
	// running topology before the crash: takeover elections vote with probe-
	// collected knowledge, and a crash in the first probe rounds would find
	// the electorate still ignorant (the soak quiesces between events for the
	// same reason).
	time.Sleep(20 * mopts.ProbeInterval)
	pre := epochs(cl, founders)
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

	observers := moved(cl, founders, pre)
	if len(observers) == 0 {
		t.Fatal("no founder's epoch moved — takeover did not propagate")
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
			hits, resumes, s := answerDelta(cl.Nodes[from], func() {
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
			if hits != 0 || resumes != 0 {
				t.Errorf("post-takeover repeat of knn %d at observer %d: %v answer-memo hits, %v resumes — a pre-crash answer or plan was served", i, from, hits, resumes)
			}
		}
	}
	if repeats > 0 && sent == 0 {
		t.Error("post-takeover repeats of warm lookups sent no can_search")
	}
}
