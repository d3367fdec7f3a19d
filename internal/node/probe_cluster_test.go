package node_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// End-to-end tests of the probe table (probe.go): a query asks each peer
// about all of its levels in one can_search, and nothing the client or the
// oracle can see may change — items, scores, per-level radii, contacts and
// hops — while the coordinator sends fewer messages. The white-box half
// (skipped spheres, dead peers) is probe_test.go.

// probeParams is a 64-node deployment with three overlays over the same
// peers.
func probeParams() experiments.Params {
	return experiments.Params{Peers: 64, ItemsPerPeer: 8, Dim: 16, Levels: 3, ClustersPerPeer: 2, Seed: 21}
}

func startProbeDeployment(t *testing.T, tuning node.Tuning) (*core.System, *node.Cluster, *node.Client) {
	t.Helper()
	sys, err := experiments.BuildMarkovSystem(probeParams())
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	t.Cleanup(func() { tr.Close() })
	cl, err := node.StartClusterTuned(sys, tr, nil, transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return sys, cl, node.NewClient(tr, transport.Policy{Timeout: 30e9})
}

// corpus flattens the deployment's items (the Markov assignment may leave
// peers empty, so queries are drawn from the items that exist).
func corpus(sys *core.System, peers int) [][]float64 {
	var items [][]float64
	for p := 0; p < peers; p++ {
		_, its := sys.PeerData(p)
		items = append(items, its...)
	}
	return items
}

// searchRPCs reads the coordinator-side can_search counters of one node: the
// RPCs it sent and how many of them re-asked for a skipped level.
func searchRPCs(nd *node.Node) (sent, required float64) {
	c := nd.Counters()
	return c["coord.can_search"], c["coord.can_search_required"]
}

// TestProbeTableDifferential holds served range and k-nn answers to the
// oracle on 64 nodes — items, scores, contacts, hops, per-level radii — from
// a spread of coordinators, while a range query's three floods over the same
// nodes cost its coordinator one can_search per other peer at most, plus the
// ones that re-ask a peer for a level it skipped (a flood that reaches all 63
// peers and re-asks two of them sends 65, so the bound is on the difference).
// How many re-ask is a race between the level goroutines — whichever level's
// machine wants a peer first sends its probe, and the others' spheres ride
// along as optional — so the pipelined deployment is held to what every
// interleaving satisfies: a lookup step sends one RPC at most and feeds the
// view it got, one hop each, so the RPCs never outnumber the hops. The tight
// bound, a handful of re-asks per query, is asserted on a twin that runs its
// levels and probes one at a time, where the count repeats exactly.
func TestProbeTableDifferential(t *testing.T) {
	p := probeParams()
	sys, cl, client := startProbeDeployment(t, node.Tuning{})
	_, serialCl, serialClient := startProbeDeployment(t, node.SerialTuning(node.Tuning{}))
	ctx := context.Background()
	items := corpus(sys, p.Peers)
	var hops int
	var rpcs float64
	for i := 0; i < 12; i++ {
		from := (i * 11) % p.Peers
		q := items[(i*17)%len(items)]
		eps := vec.Dist(q, items[(i*31+7)%len(items)])

		wantR := sys.RangeQuery(from, q, eps, core.RangeOptions{})
		// ask serves the range query on one deployment and reports what it
		// cost the coordinator in can_search RPCs.
		ask := func(tag string, cl *node.Cluster, client *node.Client) (sent, required float64) {
			sentBefore, reqBefore := searchRPCs(cl.Nodes[from])
			gotR, err := client.Range(ctx, cl.Addrs[from], q, eps, core.RangeOptions{})
			if err != nil {
				t.Fatalf("%s range query %d: %v", tag, i, err)
			}
			if !reflect.DeepEqual(normalizeRange(wantR), normalizeRange(gotR)) {
				t.Errorf("%s range query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v", tag, i, from, wantR, gotR)
			}
			sent, required = searchRPCs(cl.Nodes[from])
			sent, required = sent-sentBefore, required-reqBefore
			if sent-required > float64(p.Peers-1) || sent > float64(gotR.OverlayHops) {
				t.Errorf("%s range query %d cost its coordinator %v can_search RPCs (%v re-asking a skipped level) for %d hops on %d peers",
					tag, i, sent, required, gotR.OverlayHops, p.Peers)
			}
			return sent, required
		}
		sent, _ := ask("pipelined", cl, client)
		rpcs += sent
		hops += wantR.OverlayHops
		if _, required := ask("serial", serialCl, serialClient); required > float64(2*p.Levels) {
			t.Errorf("serial range query %d re-asked %v peers for a skipped level, want at most %d", i, required, 2*p.Levels)
		}

		wantK := sys.KNNQuery(from, q, 5, core.KNNOptions{})
		gotK, err := client.KNN(ctx, cl.Addrs[from], q, 5, core.KNNOptions{})
		if err != nil {
			t.Fatalf("knn query %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeKNN(wantK), normalizeKNN(gotK)) {
			t.Errorf("knn query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v", i, from, wantK, gotK)
		}
	}
	// The bound above means something only if the floods overlap: the hops —
	// one per view fed, what the RPC count used to be — must be a multiple of
	// the messages now sent.
	t.Logf("12 range queries: %d hops, %v can_search RPCs", hops, rpcs)
	if float64(hops) < 2*rpcs {
		t.Errorf("12 range queries took %d hops for %v can_search RPCs: the levels barely share peers", hops, rpcs)
	}
}

// TestColdLookupRPCBudget is the regression fence on the cold lookup's
// number: on a 64-node, two-level cluster a first-touch (unmemoized) query
// has its coordinator contact every sphere-intersecting owner directly —
// Θ(N) can_search RPCs — but once for both levels, through the probe table
// (97.7 per query before it, 60.3 after). Above the budget the levels no
// longer share probes; below the floor the topology no longer exercises the
// Θ(N) cost. Turning the caches on must not make a first touch dearer: a
// memo miss runs over the same table.
func TestColdLookupRPCBudget(t *testing.T) {
	params := experiments.Params{Peers: 64, ItemsPerPeer: 8, Dim: 8, Levels: 2, ClustersPerPeer: 2, Seed: 42}
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	items := corpus(sys, params.Peers)
	if len(items) < 8 {
		t.Fatalf("test corpus has only %d items", len(items))
	}
	// Levels and probes strictly serial, so which level first asks a peer —
	// and with it the count of re-asked skipped levels — repeats exactly.
	coldCost := func(tuning node.Tuning) float64 {
		tr := transport.NewChan()
		defer tr.Close()
		cl, err := node.StartClusterTuned(sys, tr, nil, transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
		ctx := context.Background()

		// Distinct, never-repeated queries from peer 0: every lookup is a
		// first touch.
		const numQueries = 6
		for i := 0; i < numQueries; i++ {
			q := items[(i*17)%len(items)]
			eps := vec.Dist(q, items[(i*31+7)%len(items)])
			want := sys.RangeQuery(0, q, eps, core.RangeOptions{})
			got, err := client.Range(ctx, cl.Addrs[0], q, eps, core.RangeOptions{})
			if err != nil {
				t.Fatalf("range query %d: %v", i, err)
			}
			if !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
				t.Errorf("range query %d diverged from oracle", i)
			}
		}
		sent, _ := searchRPCs(cl.Nodes[0])
		return sent / numQueries
	}
	perQuery := coldCost(node.SerialTuning(node.Tuning{}))
	t.Logf("%.1f coordinator RPCs per cold query", perQuery)
	if perQuery > 65 {
		t.Errorf("coordinator spent %.1f RPCs per cold query, budget 65: its levels no longer share probes", perQuery)
	}
	if perQuery < 40 {
		t.Errorf("coordinator spent only %.1f RPCs per cold query — topology too small to exercise the Θ(N) cost", perQuery)
	}
	if cached := coldCost(node.SerialTuning(node.Tuning{CacheViews: true})); cached > perQuery {
		t.Errorf("a first-touch query cost %.1f coordinator RPCs with caches on, %.1f with them off", cached, perQuery)
	}
}

// TestProbeRequiredFallbackOnRoute runs small spheres far from their
// coordinator with every step serial (one level after the other, one probe
// in flight): level 0's route and flood ask the peers they cross about the
// other levels on speculation, those peers sit off the small spheres and
// skip them, and when a later level's greedy route crosses one of them it
// has to ask again. The answers still match the oracle, hop for hop.
func TestProbeRequiredFallbackOnRoute(t *testing.T) {
	p := probeParams()
	sys, cl, client := startProbeDeployment(t, node.SerialTuning(node.Tuning{}))
	ctx := context.Background()
	items := corpus(sys, p.Peers)
	var required, sent float64
	for i := 0; i < 16; i++ {
		from := (i * 5) % p.Peers
		q := items[(i*29+3)%len(items)]
		const eps = 1e-3
		want := sys.RangeQuery(from, q, eps, core.RangeOptions{})
		got, err := client.Range(ctx, cl.Addrs[from], q, eps, core.RangeOptions{})
		if err != nil {
			t.Fatalf("range query %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
			t.Errorf("range query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v", i, from, want, got)
		}
	}
	for _, nd := range cl.Nodes {
		s, r := searchRPCs(nd)
		sent, required = sent+s, required+r
	}
	t.Logf("16 small far-away range queries: %v can_search sent, %v of them for a skipped level", sent, required)
	if required == 0 {
		t.Error("no route crossed a peer that had skipped its level: the required-probe fallback never ran")
	}
}

// TestProbeKNNWideningTakesOwnLookups forces the k-nn radius search past its
// first pass (k is most of the corpus, far beyond the mass within 5% of the
// span): only the first pass of each level was announced to the backend, so
// the later ones run as lookups of their own and probe peers the query has
// already heard from. Radii, hops and items must still be the oracle's.
func TestProbeKNNWideningTakesOwnLookups(t *testing.T) {
	p := probeParams()
	sys, cl, client := startProbeDeployment(t, node.Tuning{})
	ctx := context.Background()
	items := corpus(sys, p.Peers)
	k := len(items) * 3 / 4
	for i := 0; i < 3; i++ {
		from := (i*23 + 1) % p.Peers
		q := items[(i*41+5)%len(items)]
		sentBefore, reqBefore := searchRPCs(cl.Nodes[from])
		want := sys.KNNQuery(from, q, k, core.KNNOptions{})
		got, err := client.KNN(ctx, cl.Addrs[from], q, k, core.KNNOptions{})
		if err != nil {
			t.Fatalf("knn query %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeKNN(want), normalizeKNN(got)) {
			t.Errorf("knn query %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v", i, from, want, got)
		}
		sent, required := searchRPCs(cl.Nodes[from])
		sent, required = sent-sentBefore, required-reqBefore
		// One table asks a peer once, plus once per skipped level it re-asks:
		// more than that and some peer was probed again by a later pass.
		if sent-required <= float64(p.Peers-1) {
			t.Errorf("knn query %d (k=%d) cost %v can_search (%v required) on %d peers: no level widened past its announced pass",
				i, k, sent, required, p.Peers)
		}
	}
}

// TestProbeTableUnderPublishRace serves range and k-nn queries from three
// clients, each through its own coordinator's probe tables, while a publish
// stream grows the stores under them. No query may fail while it runs, and
// once the stream stops every answer must equal the oracle's. Run under
// -race by `make race`.
func TestProbeTableUnderPublishRace(t *testing.T) {
	p := experiments.Params{Peers: 8, ItemsPerPeer: 40, Dim: 32, Levels: 3, ClustersPerPeer: 4, Seed: 3}
	sys, err := experiments.BuildMarkovSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	defer tr.Close()
	cl, err := node.StartClusterTuned(sys, tr, nil, transport.Policy{Timeout: 30e9}, membership.Options{}, node.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
	ctx := context.Background()
	items := corpus(sys, p.Peers)
	var qs [][]float64
	var radii []float64
	for i := 0; i < 8; i++ {
		qs = append(qs, items[(i*37)%len(items)])
		radii = append(radii, vec.Dist(qs[i], items[(i*53+11)%len(items)]))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q, from := qs[i%len(qs)], cl.Addrs[i%p.Peers]
				if _, err := client.Range(ctx, from, q, radii[i%len(qs)], core.RangeOptions{}); err != nil {
					t.Errorf("range during publishes: %v", err)
					return
				}
				if _, err := client.KNN(ctx, from, q, 5, core.KNNOptions{}); err != nil {
					t.Errorf("knn during publishes: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 150; i++ {
		peer := i % p.Peers
		item := vec.Clone(items[i%len(items)])
		item[i%len(item)] += 1e-3 * float64(1+i)
		id := 1<<20 + i
		sys.PostInsert(peer, id, item)
		if err := client.Publish(ctx, cl.Addrs[peer], id, item); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	for i, q := range qs {
		from := i % p.Peers
		wantR := sys.RangeQuery(from, q, radii[i], core.RangeOptions{})
		gotR, err := client.Range(ctx, cl.Addrs[from], q, radii[i], core.RangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeRange(wantR), normalizeRange(gotR)) {
			t.Errorf("range query %d diverged from oracle after the race: %d vs %d items", i, len(gotR.Items), len(wantR.Items))
		}
		wantK := sys.KNNQuery(from, q, 5, core.KNNOptions{})
		gotK, err := client.KNN(ctx, cl.Addrs[from], q, 5, core.KNNOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeKNN(wantK), normalizeKNN(gotK)) {
			t.Errorf("knn query %d diverged from oracle after the race:\nsim:    %+v\nserved: %+v", i, wantK, gotK)
		}
	}
}
