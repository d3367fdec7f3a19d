package node_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// This file is the acceptance suite of delegated flood aggregation
// (can_search_agg, Tuning.AggFanout): delegated answers must stay
// byte-identical to the oracle on every topology churn can produce — the
// same bar the view cache met — while collapsing the coordinator's Θ(N)
// cold-query RPC bill to a small budget, measured by the cold-path
// regression test below.

// TestDelegationDifferential sweeps seeded churned topologies with
// delegation on — alternating the full stack (cache + delegation + warm
// push) with bare delegation on an uncached node — and holds delegated
// serving to the oracle on cold, warm, publish-interleaved, and
// post-live-churn passes. The pre-start churn includes a crash survivor, and
// the mid-stream phase replays a live join and leave, so gathered pools are
// proven coherent across splits, handoffs, and takeovers.
func TestDelegationDifferential(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for s := 0; s < seeds; s++ {
		seed := int64(s + 101)
		tuning := node.Tuning{AggFanout: 3}
		if s%2 == 0 {
			tuning = node.Tuning{CacheViews: true, HotReplicate: true, HotThreshold: 2, AggFanout: 2, WarmPush: 2}
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runServeDifferential(t, seed, tuning)
		})
	}
}

// TestDelegationTakeoverMidStream is the crash half: a node dies under a
// query stream with delegation (and caching) on; once takeover propagates,
// every observing coordinator must keep answering byte-identically — pools
// gathered from the post-crash topology, stale caches revalidated.
func TestDelegationTakeoverMidStream(t *testing.T) {
	runTakeoverMidStream(t, node.Tuning{CacheViews: true, AggFanout: 2, WarmPush: 2})
}

// coordRPCs totals the lookup-coordinator-attributed RPCs one node issued:
// the cold-path budget metric (view fetches + delegations + revalidation
// probes; phase-two fetches are a separate, result-sized cost).
func coordRPCs(nd *node.Node) float64 {
	c := nd.Counters()
	return c["coord.can_search"] + c["coord.agg"] + c["coord.view_version"]
}

// TestDelegationColdRPCBudget is the regression fence on delegation's
// number: on a 64-node cluster, a first-touch (cold, unmemoized) query costs
// the serial reference coordinator Θ(N) can_search RPCs — every
// sphere-intersecting owner contacted directly, once for both levels since
// the probe table (probe.go; 97.7 per query before it, 60.3 after) — while
// the delegated coordinator pays only routing hops plus a handful of
// can_search_agg calls (19.0, unchanged: it looks levels up one at a time).
// Both measured numbers are fenced; the edge they leave delegation is 3.2x,
// down from 5.1x.
func TestDelegationColdRPCBudget(t *testing.T) {
	params := experiments.Params{Peers: 64, ItemsPerPeer: 8, Dim: 8, Levels: 2, ClustersPerPeer: 2, Seed: 42}
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	// The Markov assignment can leave peers empty; draw query points from the
	// items that actually exist, spread across holders.
	var srcItems [][]float64
	for p := 0; p < params.Peers; p++ {
		_, items := sys.PeerData(p)
		srcItems = append(srcItems, items...)
	}
	if len(srcItems) < 8 {
		t.Fatalf("test corpus has only %d items", len(srcItems))
	}
	const numQueries = 6
	qs := make([][]float64, numQueries)
	radii := make([]float64, numQueries)
	for i := range qs {
		qs[i] = srcItems[(i*17)%len(srcItems)]
		radii[i] = vec.Dist(qs[i], srcItems[(i*31+7)%len(srcItems)])
	}

	run := func(tag string, tuning node.Tuning) float64 {
		tr := transport.NewChan()
		defer tr.Close()
		cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" },
			transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
		ctx := context.Background()
		for i, q := range qs {
			want := sys.RangeQuery(0, q, radii[i], core.RangeOptions{})
			got, err := client.Range(ctx, cl.Addrs[0], q, radii[i], core.RangeOptions{})
			if err != nil {
				t.Fatalf("%s: range query %d: %v", tag, i, err)
			}
			if !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
				t.Errorf("%s: range query %d diverged from oracle", tag, i)
			}
		}
		perQuery := coordRPCs(cl.Nodes[0]) / float64(len(qs))
		c := cl.Nodes[0].Counters()
		t.Logf("%s: %.1f coordinator RPCs per cold query (can_search=%v agg=%v pool_hit=%v fallback=%v fail=%v)",
			tag, perQuery, c["coord.can_search"], c["coord.agg"], c["agg.pool_hit"], c["agg.fallback"], c["agg.delegate_fail"])
		return perQuery
	}

	// Both runs issue the same distinct, never-repeated queries from peer 0,
	// so every lookup is a first touch (no memo, no warm cache).
	reference := run("serial reference", node.Tuning{Alpha: 1})
	delegated := run("delegated", node.Tuning{AggFanout: 3})

	const budget, referenceBudget = 20.0, 65.0
	if delegated > budget {
		t.Errorf("delegated coordinator spent %.1f RPCs per cold query, budget %.0f", delegated, budget)
	}
	if reference > referenceBudget {
		t.Errorf("serial reference spent %.1f RPCs per cold query, budget %.0f: its levels no longer share probes", reference, referenceBudget)
	}
	if reference < 40 {
		t.Errorf("serial reference spent only %.1f RPCs per cold query — topology too small to exercise the Θ(N) cost", reference)
	}
	if delegated*2.5 > reference {
		t.Errorf("delegation saved too little: %.1f delegated vs %.1f reference RPCs per query", delegated, reference)
	}
}

// TestWarmPushAfterChurn exercises the proactive warmer: nodes that served
// delegations push their refreshed views to recent requesters after a churn
// epoch, and receivers install them (warm.push / warm.install counters), so
// the next cold query finds pre-healed caches — and still answers
// byte-identically.
func TestWarmPushAfterChurn(t *testing.T) {
	params := cacheParams(77)
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()

	tr := transport.NewChan()
	defer tr.Close()
	tuning := node.Tuning{CacheViews: true, AggFanout: 2, WarmPush: 4}
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" },
		transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
	ctx := context.Background()

	// Cold queries from every founder: the contacted delegates record the
	// requesters the warmer will later push to.
	const protected = 4
	qs, radii := queriesFor(t, sys, protected, 6)
	for i, q := range qs {
		from := i % protected
		if _, err := client.Range(ctx, cl.Addrs[from], q, radii[i], core.RangeOptions{}); err != nil {
			t.Fatalf("warmup range %d: %v", i, err)
		}
	}
	if sumCounter(cl, "coord.agg") == 0 {
		t.Fatal("warmup queries never delegated — no requesters for the warmer to push to")
	}

	// Churn: a graceful leave (and, if pushes are slow to appear, a join)
	// bumps epochs across the leave region; every dirty delegate pushes its
	// refreshed view to its recent requesters.
	pre := make(map[int][]uint64, protected)
	for f := 0; f < protected; f++ {
		pre[f] = epochSnapshot(cl.Nodes[f], params.Levels)
	}
	victim := params.Peers - 1
	if _, err := sys.LeavePeer(victim); err != nil {
		t.Fatalf("oracle leave: %v", err)
	}
	if err := cl.Nodes[victim].Leave(ctx); err != nil {
		t.Fatalf("live leave: %v", err)
	}
	cl.Nodes[victim].Stop()

	deadline := time.Now().Add(5 * time.Second)
	joined := false
	for sumCounter(cl, "warm.push") == 0 || sumCounter(cl, "warm.install") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no warm push landed after churn: push=%v install=%v",
				sumCounter(cl, "warm.push"), sumCounter(cl, "warm.install"))
		}
		if !joined && time.Since(deadline.Add(-5*time.Second)) > 2*time.Second {
			joined = true
			rng := rand.New(rand.NewSource(77))
			points := joinPoints(t, sys, rng)
			if _, err := sys.JoinPeer(points); err != nil {
				t.Fatalf("oracle join: %v", err)
			}
			if _, err := cl.Join(ctx, sys, cl.Addrs[0], points); err != nil {
				t.Fatalf("live join: %v", err)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("warm pushes: %v sent, %v installed", sumCounter(cl, "warm.push"), sumCounter(cl, "warm.install"))

	// Post-churn answers stay byte-identical — checked from the founders that
	// observed the churn at every level (the coherence precondition; a
	// coordinator that has not heard of the leave answers from the old
	// topology by design, exactly like the simulator's stale peers).
	var observers []int
	for f := 0; f < protected; f++ {
		if epochsAdvanced(cl.Nodes[f], pre[f]) {
			observers = append(observers, f)
		}
	}
	t.Logf("churn observed by founders %v", observers)
	for _, from := range observers {
		for i, q := range qs {
			want := sys.RangeQuery(from, q, radii[i], core.RangeOptions{})
			got, err := client.Range(ctx, cl.Addrs[from], q, radii[i], core.RangeOptions{})
			if err != nil {
				t.Fatalf("post-churn range %d from %d: %v", i, from, err)
			}
			if !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
				t.Errorf("post-churn range %d from peer %d diverged from oracle", i, from)
			}
		}
	}
}
