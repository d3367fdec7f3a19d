package node_test

import (
	"context"
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
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// churnPlan scripts one soak: the founding cluster size and the ordered churn
// events driven against it. Every event quiesces before the next fires, so
// each join, leave, and crash exercises the protocol from a settled state —
// including takeover nodes holding multiple zones from earlier rounds.
type churnPlan struct {
	peers  int
	events []string
}

func soakPlan() churnPlan {
	if testing.Short() {
		return churnPlan{
			peers:  8,
			events: []string{"join", "crash", "join", "leave", "join", "crash", "leave"},
		}
	}
	return churnPlan{
		peers: 16,
		events: []string{
			"join", "join", "crash", "join", "leave", "join", "crash", "join",
			"leave", "join", "crash", "join", "leave", "join", "crash", "leave",
		},
	}
}

// pickVictim chooses a churn victim: alive, and not one of the protected
// founders that anchor the query load and the join bootstrap.
func pickVictim(t *testing.T, rng *rand.Rand, alive []bool, protected int) int {
	t.Helper()
	var pool []int
	for id, up := range alive {
		if up && id >= protected {
			pool = append(pool, id)
		}
	}
	if len(pool) == 0 {
		t.Fatal("no churnable peer left")
	}
	return pool[rng.Intn(len(pool))]
}

// TestChurnSoak is the live-membership acceptance soak: a cluster with the
// failure detector running absorbs a scripted schedule of joins (protocol
// zone splits), graceful leaves (handoff takeovers), and crashes
// (probe-detected takeovers with replica republish) while background query
// load runs, on both transports. After every event the cluster must quiesce
// into a whole tiling with no dead peer in any neighbor table, and once the
// schedule ends every range and k-nn answer from every alive peer must be
// byte-identical to the simulator oracle that replayed the same schedule via
// JoinPeer/LeavePeer/CrashPeer — and the per-level overlay state itself must
// match the oracle's node views record for record.
func TestChurnSoak(t *testing.T) {
	for _, tc := range clusterTransports() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runChurnSoak(t, tc.mk(), tc.listen)
		})
	}
}

func runChurnSoak(t *testing.T, tr transport.Transport, listen func(int) string) {
	defer tr.Close()
	plan := soakPlan()
	const protected = 4 // founders never churned: query sources + join bootstrap
	params := experiments.Params{
		Peers: plan.peers, ItemsPerPeer: 30, Dim: 32, Levels: 3, ClustersPerPeer: 4, Seed: 7,
	}
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()

	mopts := membership.Options{
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  150 * time.Millisecond,
		FailAfter:     2,
	}
	cl, err := node.StartClusterTuned(sys, tr, listen, transport.Policy{Timeout: 30e9}, mopts, node.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx := context.Background()
	qs, radii := testQueries(t, sys, 8)
	alive := make([]bool, plan.peers)
	for i := range alive {
		alive[i] = true
	}

	waitQuiesce := func(tag string) {
		t.Helper()
		waitClusterQuiesce(t, tag, cl, alive, params.Levels, mopts.ProbeInterval)
	}

	// Background query load for the whole churn window. Queries go through
	// the protected founders; failures are tolerated (a wave can hit a peer
	// mid-takeover) but counted — correctness is asserted after quiescence.
	// The founder addresses are snapshotted: cl.Addrs grows on every Join.
	loadAddrs := append([]string(nil), cl.Addrs[:protected]...)
	loadClient := node.NewClient(tr, transport.Policy{Timeout: 2e9})
	var issued, failed atomic.Int64
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			from := rng.Intn(len(loadAddrs))
			q := qs[i%len(qs)]
			issued.Add(1)
			if i%2 == 0 {
				if _, err := loadClient.Range(ctx, loadAddrs[from], q, radii[i%len(radii)], core.RangeOptions{}); err != nil {
					failed.Add(1)
				}
			} else {
				if _, err := loadClient.KNN(ctx, loadAddrs[from], q, 5, core.KNNOptions{}); err != nil {
					failed.Add(1)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	rng := rand.New(rand.NewSource(42))
	joins, leaves, crashes := 0, 0, 0
	for _, ev := range plan.events {
		switch ev {
		case "join":
			points := make([][]float64, params.Levels)
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
			id, err := sys.JoinPeer(points)
			if err != nil {
				t.Fatalf("oracle join: %v", err)
			}
			nd, err := cl.Join(ctx, sys, cl.Addrs[0], points)
			if err != nil {
				t.Fatalf("live join: %v", err)
			}
			if nd.Peer() != id {
				t.Fatalf("live joiner took id %d, oracle assigned %d", nd.Peer(), id)
			}
			alive = append(alive, true)
			joins++
		case "leave":
			v := pickVictim(t, rng, alive, protected)
			if _, err := sys.LeavePeer(v); err != nil {
				t.Fatalf("oracle leave %d: %v", v, err)
			}
			if err := cl.Nodes[v].Leave(ctx); err != nil {
				t.Fatalf("live leave %d: %v", v, err)
			}
			cl.Nodes[v].Stop()
			alive[v] = false
			leaves++
		case "crash":
			v := pickVictim(t, rng, alive, protected)
			if _, err := sys.CrashPeer(v); err != nil {
				t.Fatalf("oracle crash %d: %v", v, err)
			}
			cl.Nodes[v].Stop()
			alive[v] = false
			crashes++
		}
		waitQuiesce(ev)
	}
	close(stopLoad)
	wg.Wait()
	if issued.Load() == 0 {
		t.Fatal("no background query load ran during churn")
	}
	t.Logf("churn: %d joins, %d leaves, %d crashes; load: %d queries, %d failed mid-churn",
		joins, leaves, crashes, issued.Load(), failed.Load())

	// The overlay state every alive node converged to must be the oracle's,
	// view for view: zones, neighbor tables, and stored records.
	for l := 0; l < params.Levels; l++ {
		ov := sys.Overlay(l).(*can.Overlay)
		for id, nd := range cl.Nodes {
			if !alive[id] {
				continue
			}
			ls := nd.Membership().View(l)
			want := ov.View(id)
			if !zonesMatch(ls.Zones, want.Zones) {
				t.Errorf("peer %d level %d zones diverged:\nlive:   %v\noracle: %v", id, l, ls.Zones, want.Zones)
			}
			if len(ls.Neighbors) != len(want.Neighbors) {
				t.Errorf("peer %d level %d has %d neighbors, oracle %d", id, l, len(ls.Neighbors), len(want.Neighbors))
			} else {
				for i, nb := range ls.Neighbors {
					w := want.Neighbors[i]
					if nb.ID != w.ID || !zonesMatch(nb.Zones, w.Zones) {
						t.Errorf("peer %d level %d neighbor %d diverged: live %d %v, oracle %d %v",
							id, l, i, nb.ID, nb.Zones, w.ID, w.Zones)
					}
				}
			}
			checkRecords(t, "owned", id, l, ls.Owned, want.Owned)
			checkRecords(t, "replicas", id, l, ls.Replicas, want.Replicas)
		}
	}

	// Post-quiescence acceptance sweep: every query from every alive peer,
	// zero errors, byte-identical answers against the replayed oracle.
	client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
	for id := range cl.Nodes {
		if !alive[id] {
			continue
		}
		for i, q := range qs {
			wantR := sys.RangeQuery(id, q, radii[i], core.RangeOptions{})
			gotR, err := client.Range(ctx, cl.Addrs[id], q, radii[i], core.RangeOptions{})
			if err != nil {
				t.Fatalf("post-quiescence range from %d: %v", id, err)
			}
			if !reflect.DeepEqual(normalizeRange(wantR), normalizeRange(gotR)) {
				t.Errorf("range query %d from peer %d diverged:\nsim:    %+v\nserved: %+v", i, id, wantR, gotR)
			}
			wantK := sys.KNNQuery(id, q, 5, core.KNNOptions{})
			gotK, err := client.KNN(ctx, cl.Addrs[id], q, 5, core.KNNOptions{})
			if err != nil {
				t.Fatalf("post-quiescence knn from %d: %v", id, err)
			}
			if !reflect.DeepEqual(normalizeKNN(wantK), normalizeKNN(gotK)) {
				t.Errorf("knn query %d from peer %d diverged:\nsim:    %+v\nserved: %+v", i, id, wantK, gotK)
			}
		}
	}
}

// clusterQuiet reports whether the cluster looks settled right now: no
// recovery republish in flight, every level's alive zones tile the full
// torus, and no alive node still lists a dead peer as a neighbor.
func clusterQuiet(cl *node.Cluster, alive []bool, levels int) bool {
	for id, nd := range cl.Nodes {
		if !alive[id] {
			continue
		}
		if nd.Membership().Busy() {
			return false
		}
	}
	for l := 0; l < levels; l++ {
		var tiles [][]route.Zone
		for id, nd := range cl.Nodes {
			if !alive[id] {
				continue
			}
			ls := nd.Membership().View(l)
			for _, nb := range ls.Neighbors {
				if nb.ID >= len(alive) || !alive[nb.ID] {
					return false
				}
			}
			tiles = append(tiles, ls.Zones)
		}
		if !route.VerifyTiling(tiles) {
			return false
		}
	}
	return true
}

// waitClusterQuiesce polls until clusterQuiet holds continuously for a settle
// window spanning several probe rounds — long enough for every detector to
// have refreshed its cached self-reports from the new topology, so the next
// crash's elections run on fresh knowledge, like the oracle's.
func waitClusterQuiesce(t *testing.T, tag string, cl *node.Cluster, alive []bool, levels int, probeInterval time.Duration) {
	t.Helper()
	settle := 6 * probeInterval
	deadline := time.Now().Add(30 * time.Second)
	var okSince time.Time
	for {
		if clusterQuiet(cl, alive, levels) {
			if okSince.IsZero() {
				okSince = time.Now()
			} else if time.Since(okSince) >= settle {
				return
			}
		} else {
			okSince = time.Time{}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: cluster failed to quiesce within 30s", tag)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func zonesMatch(a, b []route.Zone) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkRecords compares stored index records in order: sequence numbers,
// sphere geometry, and the cluster-ref payloads field by field (live records
// crossed the wire, so pointer identity is gone but values must survive).
func checkRecords(t *testing.T, kind string, peer, level int, got, want []route.RecordView) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("peer %d level %d has %d %s records, oracle %d", peer, level, len(got), kind, len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Entry.Radius != w.Entry.Radius || !reflect.DeepEqual(g.Entry.Key, w.Entry.Key) {
			t.Errorf("peer %d level %d %s record %d diverged: live seq %d %v r=%v, oracle seq %d %v r=%v",
				peer, level, kind, i, g.Seq, g.Entry.Key, g.Entry.Radius, w.Seq, w.Entry.Key, w.Entry.Radius)
			continue
		}
		gr, ok1 := g.Entry.Payload.(core.ClusterRef)
		wr, ok2 := w.Entry.Payload.(core.ClusterRef)
		if !ok1 || !ok2 {
			t.Errorf("peer %d level %d %s record %d payload types %T vs %T", peer, level, kind, i, g.Entry.Payload, w.Entry.Payload)
			continue
		}
		if gr.Peer != wr.Peer || gr.Level != wr.Level || gr.Index != wr.Index || gr.Radius != wr.Radius ||
			gr.Items != wr.Items || !reflect.DeepEqual(gr.Center, wr.Center) {
			t.Errorf("peer %d level %d %s record %d payload diverged:\nlive:   %+v\noracle: %+v",
				peer, level, kind, i, gr, wr)
		}
	}
}
