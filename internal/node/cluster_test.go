package node_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// testParams is a small-but-real deployment: every peer owns data, every
// level has published spheres, and queries cross multiple zones.
func testParams() experiments.Params {
	return experiments.Params{Peers: 8, ItemsPerPeer: 40, Dim: 32, Levels: 3, ClustersPerPeer: 4, Seed: 1}
}

func buildPublishedSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := experiments.BuildMarkovSystem(testParams())
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	return sys
}

// testQueries derives in-domain query points with meaningful radii from the
// corpus itself: stored items as centers, inter-item distances as radii.
func testQueries(t *testing.T, sys *core.System, n int) (qs [][]float64, radii []float64) {
	t.Helper()
	p := testParams()
	for i := 0; i < n; i++ {
		_, itemsA := sys.PeerData(i % p.Peers)
		_, itemsB := sys.PeerData((i + 3) % p.Peers)
		if len(itemsA) == 0 || len(itemsB) == 0 {
			t.Fatalf("peer without items in test corpus")
		}
		q := itemsA[i%len(itemsA)]
		qs = append(qs, q)
		radii = append(radii, vec.Dist(q, itemsB[(2*i)%len(itemsB)]))
	}
	return qs, radii
}

// normalizeRange maps empty-vs-nil slice representation differences away:
// the wire codec decodes zero-length sequences as nil while the in-process
// path may hold empty non-nil slices. Values are compared exactly.
func normalizeRange(r core.RangeResult) core.RangeResult {
	if len(r.Items) == 0 {
		r.Items = nil
	}
	if len(r.Scores) == 0 {
		r.Scores = nil
	}
	return r
}

func normalizeKNN(r core.KNNResult) core.KNNResult {
	if len(r.Items) == 0 {
		r.Items = nil
	}
	if len(r.Scores) == 0 {
		r.Scores = nil
	}
	if len(r.EpsPerLevel) == 0 {
		r.EpsPerLevel = nil
	}
	return r
}

// clusterTransport names one substrate the oracle test runs on.
type clusterTransport struct {
	name   string
	mk     func() transport.Transport
	listen func(int) string
}

// clusterTransports enumerates the two substrates the oracle test runs on.
func clusterTransports() []clusterTransport {
	return []clusterTransport{
		{name: "chan", mk: func() transport.Transport { return transport.NewChan() }, listen: func(int) string { return "" }},
		{name: "tcp", mk: func() transport.Transport { return transport.NewTCP() }, listen: func(int) string { return "127.0.0.1:0" }},
	}
}

// oracleTunings enumerates the coordinator configurations the oracle must
// hold under: strictly serial (α=1, no fanout — the frozen reference
// behavior) and the parallel default (α=3, pipelined levels and fetches).
// Answers must be byte-identical in both.
func oracleTunings() []struct {
	name   string
	tuning node.Tuning
} {
	return []struct {
		name   string
		tuning node.Tuning
	}{
		{name: "alpha=1", tuning: node.SerialTuning(node.Tuning{})},
		{name: "alpha=3", tuning: node.Tuning{}},
	}
}

// TestClusterMatchesOracle is the determinism oracle: a cluster of nodes
// built from system snapshots must answer every range and k-nn query
// byte-identically to the in-process System — items, scores, per-level
// radii, peer contacts, and overlay hop counts — over both transports and
// at both α=1 and α=3, and must stay identical after post-creation inserts
// applied through Publish RPCs (vs the oracle's PostInsert).
func TestClusterMatchesOracle(t *testing.T) {
	for _, tc := range clusterTransports() {
		for _, tn := range oracleTunings() {
			t.Run(tc.name+"/"+tn.name, func(t *testing.T) {
				testClusterMatchesOracle(t, tc, tn.tuning)
			})
		}
	}
}

func testClusterMatchesOracle(t *testing.T, tc clusterTransport, tuning node.Tuning) {
	sys := buildPublishedSystem(t)
	tr := tc.mk()
	defer tr.Close()
	cl, err := node.StartClusterTuned(sys, tr, tc.listen, transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
	ctx := context.Background()
	p := testParams()
	qs, radii := testQueries(t, sys, 6)

	check := func(tag string, addrs []string, froms []int) {
		t.Helper()
		for i, q := range qs {
			from := froms[i%len(froms)]
			eps := radii[i]

			wantR := sys.RangeQuery(from, q, eps, core.RangeOptions{})
			gotR, err := client.Range(ctx, addrs[from], q, eps, core.RangeOptions{})
			if err != nil {
				t.Fatalf("%s: range query %d: %v", tag, i, err)
			}
			if !reflect.DeepEqual(normalizeRange(wantR), normalizeRange(gotR)) {
				t.Errorf("%s: range query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v",
					tag, i, from, wantR, gotR)
			}

			wantK := sys.KNNQuery(from, q, 5, core.KNNOptions{})
			gotK, err := client.KNN(ctx, addrs[from], q, 5, core.KNNOptions{})
			if err != nil {
				t.Fatalf("%s: knn query %d: %v", tag, i, err)
			}
			if !reflect.DeepEqual(normalizeKNN(wantK), normalizeKNN(gotK)) {
				t.Errorf("%s: knn query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v",
					tag, i, from, wantK, gotK)
			}
		}
	}

	allPeers := make([]int, p.Peers)
	for i := range allPeers {
		allPeers[i] = i
	}
	check("initial", cl.Addrs, allPeers)

	// Post-creation inserts: the same items enter the oracle via
	// PostInsert and the cluster via Publish RPCs; answers (now served
	// from stale summaries, Fig 10c) must keep matching.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 6; i++ {
		peer := i % p.Peers
		_, items := sys.PeerData(peer)
		item := append([]float64(nil), items[i%len(items)]...)
		for d := range item {
			item[d] += 0.01 * rng.Float64()
		}
		id := 100000 + i
		sys.PostInsert(peer, id, item)
		if err := client.Publish(ctx, cl.Addrs[peer], id, item); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	check("after inserts", cl.Addrs, allPeers)

	// The lookups really ran peer-to-peer: nodes answered can_search
	// hops for each other.
	var canSearches float64
	for _, nd := range cl.Nodes {
		canSearches += nd.Counters()["rpc.can_search"]
	}
	if canSearches == 0 {
		t.Error("no can_search RPCs recorded — lookups did not run peer-to-peer")
	}

	// Post-churn: one peer leaves gracefully (zones and records handed
	// to neighbors, device gone), another crashes (storage wiped, zone
	// still routable). A cluster snapshotted from this degraded
	// topology — multi-zone takeover nodes included — must keep
	// matching the oracle. The replica this test used to exercise
	// never handled these shapes; the shared routing core does.
	cl.Stop()
	if _, err := sys.LeavePeer(7); err != nil {
		t.Fatalf("LeavePeer: %v", err)
	}
	sys.FailPeer(2)
	cl2, err := node.StartClusterTuned(sys, tr, tc.listen, transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Stop()
	// The departed device is off the network: fetches aimed at its
	// surviving summaries must come back empty, like the oracle's
	// dead-peer backend, not as errors.
	cl2.Nodes[7].Stop()
	if cl2.Nodes[7].ItemCount() != 0 || cl2.Nodes[2].ItemCount() != 0 {
		t.Fatalf("dead peers still hold items: left=%d failed=%d",
			cl2.Nodes[7].ItemCount(), cl2.Nodes[2].ItemCount())
	}
	alive := []int{0, 1, 3, 4, 5, 6}
	check("post-churn", cl2.Addrs, alive)
}

// TestSnapshotRequiresCAN pins the extraction contract: serving replicates
// CAN routing, so non-CAN overlays are rejected explicitly.
func TestSnapshotErrors(t *testing.T) {
	sys, err := experiments.BuildMarkovSystem(testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Published state is not required, but bounds are.
	if _, err := node.ExtractSnapshot(sys, 0); err != nil {
		t.Fatalf("snapshot of bounds-installed system: %v", err)
	}
	sys2, err := core.NewSystem(sys.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.ExtractSnapshot(sys2, 0); err == nil {
		t.Fatal("snapshot without bounds succeeded")
	}
}

// TestUnknownMethodsAreRefusedUncounted: a method name is a peer's bytes, so
// it may not become a counter key until it is recognised — otherwise any peer
// grows the counter map without bound. Junk names and the five methods a
// not-yet-upgraded peer may still send (three removed with delegated
// aggregation, fetch_sub with the fetch directory — such a peer fails its
// query on the refusal rather than caching answers nobody tracks — and
// publish_batch, which never had a sender) all come back as the same
// classified refusal and count as rpc.unknown.
func TestUnknownMethodsAreRefusedUncounted(t *testing.T) {
	for _, tc := range clusterTransports() {
		t.Run(tc.name, func(t *testing.T) {
			sys := buildPublishedSystem(t)
			tr := tc.mk()
			defer tr.Close()
			cl, err := node.StartClusterTuned(sys, tr, tc.listen, transport.Policy{Timeout: 30e9}, membership.Options{}, node.Tuning{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			raw := transport.NewClient(tr, transport.Policy{Timeout: 30e9})
			ctx := context.Background()
			call := func(method string) {
				t.Helper()
				_, err := raw.Call(ctx, cl.Addrs[0], transport.Request{Method: method, Body: []byte{1, 2, 3}})
				var remote *transport.RemoteError
				if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "unknown method") {
					t.Fatalf("method %q: err = %v, want a remote unknown-method refusal", method, err)
				}
			}

			call("bogus")
			before := cl.Nodes[0].Counters()
			for i := 0; i < 1000; i++ {
				call(fmt.Sprintf("bogus-%d", i))
			}
			after := cl.Nodes[0].Counters()
			if len(after) != len(before) {
				t.Errorf("1000 distinct unknown methods grew the counter map from %d to %d keys", len(before), len(after))
			}
			for _, method := range []string{"can_search_agg", "warm_views", "replicate_refs", "fetch_sub", "publish_batch"} {
				call(method)
			}
			if got := cl.Nodes[0].Counters()["rpc.unknown"]; got != 1006 {
				t.Errorf("rpc.unknown = %v, want 1006", got)
			}
		})
	}
}

// TestCancelledQuerySendsNothing: a query runs under its caller's ctx — the
// one a handler gets from the transport — from the first can_search to the
// last fetch. One whose ctx is already cancelled fails with an error wrapping
// context.Canceled, and no peer serves a single lookup or fetch RPC for it,
// with the caches off and on.
func TestCancelledQuerySendsNothing(t *testing.T) {
	for _, tuning := range []node.Tuning{{}, {CacheViews: true}} {
		t.Run(fmt.Sprintf("cache=%v", tuning.CacheViews), func(t *testing.T) {
			sys := buildPublishedSystem(t)
			tr := transport.NewChan()
			defer tr.Close()
			cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" }, transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			nd := cl.Nodes[0]
			q := make([]float64, testParams().Dim)
			if _, err := nd.RangeQuery(ctx, q, 1e9, core.RangeOptions{}); !errors.Is(err, context.Canceled) {
				t.Errorf("range query under a cancelled ctx: err = %v, want context.Canceled", err)
			}
			if _, err := nd.KNNQuery(ctx, q, 5, core.KNNOptions{}); !errors.Is(err, context.Canceled) {
				t.Errorf("k-nn query under a cancelled ctx: err = %v, want context.Canceled", err)
			}
			for _, name := range []string{"rpc.can_search", "rpc.fetch_range", "rpc.fetch_knn"} {
				if got := sumCounter(cl, name); got != 0 {
					t.Errorf("the cluster served %v %s for cancelled queries", got, name)
				}
			}
		})
	}
}
