package node_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Acceptance suite of streaming incremental publish (core/stream.go +
// node/stream.go): a cluster with Tuning.StreamPublish must answer every query
// byte-identically to a core.System driven by StreamInsert — through absorb,
// grow, split, and full re-cluster rounds, with and without caching
// coordinators in the loop and live churn interleaved. The kernel side is
// pinned in core/stream_test.go; this file proves the store_rec announce path
// places every record delta exactly where the simulator's streamOp does.

// TestStreamDifferential sweeps seeded churned topologies, interleaving
// streamed publishes (enough per holder to cross a re-cluster) and live
// join/leave churn with byte-identity checks — through caching coordinators
// (answer entries keep fetched slots only under streaming: no plan, no bytes)
// and through uncached ones (serve-ingest's configuration). Both run every lookup over
// the probe table.
func TestStreamDifferential(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for s := 0; s < seeds; s++ {
		seed := int64(s + 101)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, cached := range []bool{true, false} {
				t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
					runStreamDifferential(t, seed, cached)
				})
			}
		})
	}
}

func runStreamDifferential(t *testing.T, seed int64, cached bool) {
	params := cacheParams(seed)
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	// Same kernel tuning on both substrates; every=4 so the per-holder publish
	// bursts below cross a re-cluster (delete flood + fresh epoch) live.
	const every = 4
	sys.SetStreamTuning(core.StreamTuning{ReclusterEvery: every})
	tuning := node.Tuning{CacheViews: cached, StreamPublish: true, ReclusterEvery: every}

	// Pre-start churn so the snapshot includes split zones and a handoff.
	rng := rand.New(rand.NewSource(seed * 41))
	const protected = 4 // founders: coordinators and stream holders
	if _, err := sys.JoinPeer(joinPoints(t, sys, rng)); err != nil {
		t.Fatalf("oracle join: %v", err)
	}
	left := protected + rng.Intn(params.Peers-protected)
	if _, err := sys.LeavePeer(left); err != nil {
		t.Fatalf("oracle leave %d: %v", left, err)
	}

	tr := transport.NewChan()
	defer tr.Close()
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" },
		transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.Nodes[left].Stop()

	client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
	ctx := context.Background()
	qs, radii := queriesFor(t, sys, protected, 6)
	founders := []int{0, 1, 2, 3}

	check := func(tag string, froms []int) {
		t.Helper()
		for i, q := range qs {
			from := froms[i%len(froms)]
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
	}

	check("cold", founders)

	// Streamed publish bursts: every+2 inserts at each founder in turn, so
	// every holder's kernel runs absorb/grow/split rounds AND a full
	// re-cluster (retire-all deltas, fresh-epoch records) against the live
	// announce path. Each streamed item must be findable by its own point
	// query immediately — the freshness PostInsert cannot give — and
	// byte-identically on both substrates.
	pubRng := rand.New(rand.NewSource(seed * 43))
	nextID := 9000
	publish := func(holder int) {
		t.Helper()
		item := append([]float64(nil), qs[pubRng.Intn(len(qs))]...)
		for d := range item {
			item[d] += 0.02 * (pubRng.Float64() - 0.5)
		}
		sys.StreamInsert(holder, nextID, item)
		if err := client.Publish(ctx, cl.Addrs[holder], nextID, item); err != nil {
			t.Fatalf("live streamed publish %d at holder %d: %v", nextID, holder, err)
		}
		from := founders[(holder+1)%len(founders)]
		want := sys.RangeQuery(from, item, 0, core.RangeOptions{})
		got, err := client.Range(ctx, cl.Addrs[from], item, 0, core.RangeOptions{})
		if err != nil {
			t.Fatalf("point query for streamed item %d: %v", nextID, err)
		}
		if !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
			t.Errorf("point query for streamed item %d diverged:\nsim:    %+v\nserved: %+v", nextID, want, got)
		}
		found := false
		for _, id := range got.Items {
			if id == nextID {
				found = true
			}
		}
		if !found {
			t.Errorf("streamed item %d not found by its own point query", nextID)
		}
		nextID++
	}
	for _, holder := range founders {
		for k := 0; k < every+2; k++ {
			publish(holder)
		}
		check(fmt.Sprintf("post-stream-%d", holder), founders)
	}
	if sumCounter(cl, "rpc.m.store_rec") == 0 {
		t.Error("streamed publishes sent no store_rec announcements")
	}

	// Live mid-stream churn: protocol join and graceful leave while the
	// summaries carry stream-epoch records, then another publish burst — the
	// handoff must move stream-created records exactly like built ones, and
	// announces must route over the post-churn topology.
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
		if v != left {
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

	for k := 0; k < every+1; k++ {
		publish(founders[k%len(founders)])
	}
	observers := moved(cl, founders, pre)
	t.Logf("mid-stream churn observed by founders %v", observers)
	if len(observers) > 0 {
		check("post-churn", observers)
	}
}

// TestConcurrentStreamPublishMatchesOracle races streamed publishes at one
// holder. Every one of them changes the same records (the item sits inside a
// published cluster at every level, so each insert is one absorb per level),
// and a holder applies a record last-writer-wins: the announces must leave in
// the order the kernel produced them, or some holder is left with an older
// item count than the publisher's and every later query scores the peer
// wrong. The oracle takes the same inserts one after the other. With caching
// on, a coordinator asks the query over the wire throughout, so its answer
// entry — slots only under streaming — is stored, notified and refilled while
// the publishes race. Run under -race by `make race`.
func TestConcurrentStreamPublishMatchesOracle(t *testing.T) {
	params := experiments.Params{Peers: 8, ItemsPerPeer: 20, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: 11}
	const holder, from, publishes = 0, 1, 16
	for _, tuning := range []node.Tuning{{StreamPublish: true}, {StreamPublish: true, CacheViews: true}} {
		for round := 0; round < 4; round++ {
			sys, err := experiments.BuildMarkovSystem(params)
			if err != nil {
				t.Fatal(err)
			}
			sys.PublishAll()
			tr := transport.NewChan()
			cl, err := node.StartClusterTuned(sys, tr, nil, transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
			if err != nil {
				t.Fatal(err)
			}
			_, items := sys.PeerData(holder)
			item := items[round%len(items)]
			client, ctx := node.NewClient(tr, transport.Policy{Timeout: 30e9}), context.Background()
			ask := func() (core.KNNResult, error) { return client.KNN(ctx, cl.Addrs[from], item, 5, core.KNNOptions{}) }
			if _, err := ask(); err != nil {
				t.Fatalf("%+v round %d: knn: %v", tuning, round, err)
			}

			stop, asked := make(chan struct{}), make(chan error, 1)
			go func() {
				for {
					select {
					case <-stop:
						asked <- nil
						return
					default:
					}
					if _, err := ask(); err != nil {
						asked <- err
						return
					}
				}
			}()
			errs := make(chan error, publishes)
			for i := 0; i < publishes; i++ {
				go func(id int) { errs <- cl.Nodes[holder].Publish(id, item) }(9000 + i)
			}
			for i := 0; i < publishes; i++ {
				if err := <-errs; err != nil {
					t.Fatalf("%+v round %d: streamed publish: %v", tuning, round, err)
				}
				sys.StreamInsert(holder, 9000+i, item)
			}
			close(stop)
			if err := <-asked; err != nil {
				t.Fatalf("%+v round %d: knn during the publishes: %v", tuning, round, err)
			}

			want := sys.KNNQuery(from, item, 5, core.KNNOptions{})
			got, err := ask()
			if err != nil {
				t.Fatalf("%+v round %d: knn: %v", tuning, round, err)
			}
			// The racing publishes took their ids in any order, so the items of
			// the answer may differ in which of the sixteen copies they name;
			// what every interleaving must agree on is what the overlay says of
			// each peer.
			if !reflect.DeepEqual(want.Scores, got.Scores) || !reflect.DeepEqual(want.EpsPerLevel, got.EpsPerLevel) {
				t.Errorf("%+v round %d: scores after %d racing publishes diverged from the oracle:\nsim:    %+v\nserved: %+v", tuning, round, publishes, want.Scores, got.Scores)
			}
			cl.Stop()
			tr.Close()
		}
	}
}

// TestStreamAnnounceSerialMatchesParallel publishes one stream of items
// through two clusters started from the same snapshot — one announcing with
// the serial coordinator (levels one after the other, one flood visit at a
// time), one with the default announce (every level at once, α holders per
// flood batch) — and through the oracle's StreamInsert, then holds every
// holder's owned and replica records, at every level, byte-identical across
// the three. The bursts cross re-clusters, whose retire-all deletes and fresh
// records put many deltas on one level, and splits put some far from the
// publisher's clusters.
func TestStreamAnnounceSerialMatchesParallel(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			params := experiments.Params{Peers: 12, ItemsPerPeer: 20, Dim: 16, Levels: 4, ClustersPerPeer: 3, Seed: seed}
			sys, err := experiments.BuildMarkovSystem(params)
			if err != nil {
				t.Fatal(err)
			}
			sys.PublishAll()
			const every = 4
			sys.SetStreamTuning(core.StreamTuning{ReclusterEvery: every})
			tuning := node.Tuning{StreamPublish: true, ReclusterEvery: every}
			clusters := map[string]*node.Cluster{}
			for name, tn := range map[string]node.Tuning{"serial": node.SerialTuning(tuning), "default": tuning} {
				tr := transport.NewChan()
				defer tr.Close()
				cl, err := node.StartClusterTuned(sys, tr, nil, transport.Policy{Timeout: 30e9}, membership.Options{}, tn)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Stop()
				clusters[name] = cl
			}

			rng := rand.New(rand.NewSource(seed * 47))
			id := 9000
			for holder := 0; holder < 4; holder++ {
				_, items := sys.PeerData(holder)
				for k := 0; k < every+2; k++ {
					item := append([]float64(nil), items[rng.Intn(len(items))]...)
					spread := 0.02
					if k%3 == 2 {
						spread = 0.5 // far enough from every cluster to split
					}
					for d := range item {
						item[d] += spread * (rng.Float64() - 0.5)
					}
					sys.StreamInsert(holder, id, item)
					for name, cl := range clusters {
						if err := cl.Nodes[holder].Publish(id, item); err != nil {
							t.Fatalf("%s: streamed publish %d at %d: %v", name, id, holder, err)
						}
					}
					id++
				}
			}

			encode := func(recs []route.RecordView) []byte { return transport.Encode(&recs, membership.WalkRecords) }
			for l := 0; l < params.Levels; l++ {
				ov := sys.Overlay(l).(*can.Overlay)
				for p := 0; p < params.Peers; p++ {
					want := ov.View(p)
					for name, cl := range clusters {
						got := cl.Nodes[p].Membership().View(l)
						if !bytes.Equal(encode(got.Owned), encode(want.Owned)) {
							t.Errorf("%s: peer %d level %d owned records diverged:\nlive:   %v\noracle: %v", name, p, l, got.Owned, want.Owned)
						}
						if !bytes.Equal(encode(got.Replicas), encode(want.Replicas)) {
							t.Errorf("%s: peer %d level %d replicas diverged:\nlive:   %v\noracle: %v", name, p, l, got.Replicas, want.Replicas)
						}
					}
				}
			}
		})
	}
}
