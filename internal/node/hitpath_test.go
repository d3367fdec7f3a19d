package node

import (
	"context"
	"slices"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// Tests of the hit path (fetchAll, fetchcache.go): a query whose every fetch
// answer is a slot of its answer-memo entry resolves its whole retrieval phase
// on the goroutine that runs it, in one pass over the request's slot table.

// hitPathWorld is a 32-node cache-on cluster and a centre whose range queries
// contact from a handful of peers to most of them as the radius grows.
func hitPathWorld(t *testing.T) (w *dirWorld, x []float64, radii []float64) {
	w = startDirWorld(t, 32, 3)
	x, _, _, epsFar := w.spheres(1)
	return w, x, []float64{epsFar / 8, epsFar, 4 * epsFar}
}

// fetchesServed totals the fetch RPCs the cluster's nodes have handled.
func (w *dirWorld) fetchesServed() float64 {
	var total float64
	for _, nd := range w.cl.Nodes {
		c := nd.Counters()
		total += c["rpc.fetch_range"] + c["rpc.fetch_knn"]
	}
	return total
}

// dropBytes drops the encoded answer of every entry nd memoized and keeps the
// plans and slots, as notifications that change no slot would: the next asking
// of each resumes at retrieval, served from its slots.
func dropBytes(nd *Node) {
	nd.ansMu.Lock()
	for key, e := range nd.memo.entries {
		e.resp = nil
		nd.memo.entries[key] = e
	}
	nd.ansMu.Unlock()
}

// TestHitPathAllocsPerQueryNotPerFetch fences a fully cached retrieval — what
// an answer-memo resume runs: a range request through Node.handle whose entry
// kept its plan and every slot. What it allocates belongs to the query (the
// answer slots, the merged ids, the slot table), not to its fetches. Tripling
// the peers contacted may add the odd allocation where a table grows, but
// nowhere near one per contact — a goroutine per fetch costs at least its
// closure, a request body or a boxed key one more (2.3 per contact before the
// retrieval pass).
func TestHitPathAllocsPerQueryNotPerFetch(t *testing.T) {
	w, x, radii := hitPathWorld(t)
	nd, ctx := w.cl.Nodes[0], context.Background()
	var contacts []int
	var allocs []float64
	for _, eps := range radii {
		req := transport.Request{Method: methodRange, Body: encodeRangeReq(x, eps, core.RangeOptions{})}
		if _, err := nd.handle(ctx, req); err != nil { // miss: stores the plan and the slots
			t.Fatal(err)
		}
		served, resumes := w.fetchesServed(), nd.Counters()[ctrAnswerResume]
		contacts = append(contacts, len(nd.memo.entries[string(append([]byte{'r'}, req.Body...))].slots))
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			dropBytes(nd)
			if _, err := nd.handle(ctx, req); err != nil {
				t.Fatal(err)
			}
		}))
		if sent := w.fetchesServed() - served; sent != 0 {
			t.Fatalf("resumes of a cached range request sent %v fetch RPCs: the query is not fully cached", sent)
		}
		if got := nd.Counters()[ctrAnswerResume] - resumes; got != 51 {
			t.Fatalf("%v resumes in 51 askings with the bytes dropped", got)
		}
	}
	t.Logf("contacts %v, allocations per cached retrieval %v", contacts, allocs)
	last := len(radii) - 1
	if contacts[last] < 3*contacts[0] {
		t.Fatalf("the widest query contacts %d peers, the narrowest %d: the fence needs them a factor apart", contacts[last], contacts[0])
	}
	if extra, peers := allocs[last]-allocs[0], float64(contacts[last]-contacts[0]); extra > peers/2 {
		t.Errorf("%v more peers contacted cost a fully cached retrieval %v more allocations: something on the hit path allocates per fetch", peers, extra)
	}
}

// TestHitPathCountsEveryHit: the retrieval pass adds its slot hits to
// cache.fetch_local_hit in one go, and the sum must still be one per answer
// served from a slot — every contact of a resumed request, the coordinator's
// own store included, for both query kinds.
func TestHitPathCountsEveryHit(t *testing.T) {
	w, x, radii := hitPathWorld(t)
	nd := w.cl.Nodes[0]
	own := false
	contacts := func(scores []core.PeerScore, contacted int) float64 {
		own = own || slices.ContainsFunc(scores[:contacted], func(ps core.PeerScore) bool { return ps.Peer == nd.peer })
		return float64(contacted)
	}
	hitsOf := func(query func() float64) (hits, want float64) {
		query() // miss: stores the plan and the slots
		dropBytes(nd)
		before, served := nd.Counters()["cache.fetch_local_hit"], w.fetchesServed()
		want = query()
		if sent := w.fetchesServed() - served; sent != 0 {
			t.Fatalf("the resume of a cached request sent %v fetch RPCs", sent)
		}
		return nd.Counters()["cache.fetch_local_hit"] - before, want
	}
	for _, eps := range radii {
		hits, want := hitsOf(func() float64 {
			res, err := decodeRangeResp(w.ask("range", 0, methodRange, encodeRangeReq(x, eps, core.RangeOptions{})))
			if err != nil {
				t.Fatal(err)
			}
			return contacts(res.Scores, res.PeersContacted)
		})
		if hits != want || want == 0 {
			t.Errorf("range query of radius %v: %v slot hits counted, %v peers contacted", eps, hits, want)
		}
	}
	for _, k := range []int{1, 20, 200} {
		hits, want := hitsOf(func() float64 {
			res, err := transport.Decode(w.ask("knn", 0, methodKNN, encodeKNNReq(x, k, core.KNNOptions{})), walkKNNResp)
			if err != nil {
				t.Fatal(err)
			}
			return contacts(res.Scores, res.PeersContacted)
		})
		if hits != want || want == 0 {
			t.Errorf("%d-nn query: %v slot hits counted, %v peers contacted", k, hits, want)
		}
	}
	if !own {
		t.Error("no query contacted the coordinator's own store: its slot went uncounted")
	}
}

// TestHitPathRepeatAllocsConstant fences the answer memo's hit path: a repeat
// range request through Node.handle is a counter add, a key built on the stack,
// one map lookup and the stored bytes, so it allocates nothing, whether the
// answer holds 10 ids or 1,000.
func TestHitPathRepeatAllocsConstant(t *testing.T) {
	sys, err := experiments.BuildMarkovSystem(experiments.Params{Peers: 16, ItemsPerPeer: 80, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	t.Cleanup(func() { tr.Close() })
	cl, err := StartClusterTuned(sys, tr, nil, transport.Policy{Timeout: 30e9}, membership.Options{}, Tuning{CacheViews: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)

	nd, ctx := cl.Nodes[0], context.Background()
	_, items := sys.PeerData(0)
	q := items[0]
	var dists []float64
	for p := 0; p < 16; p++ {
		_, items := sys.PeerData(p)
		for _, it := range items {
			dists = append(dists, vec.Dist(q, it))
		}
	}
	slices.Sort(dists)
	for _, n := range []int{10, 1000} {
		req := transport.Request{Method: methodRange, Body: encodeRangeReq(q, (dists[n-1]+dists[n])/2, core.RangeOptions{})}
		resp, err := nd.handle(ctx, req) // miss: fills the memo
		if err != nil {
			t.Fatal(err)
		}
		if res, err := decodeRangeResp(resp.Body); err != nil || len(res.Items) != n {
			t.Fatalf("the answer of the %d nearest holds %d ids (%v)", n, len(res.Items), err)
		}
		hits := nd.Counters()[ctrAnswerHit]
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := nd.handle(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
		if got := nd.Counters()[ctrAnswerHit] - hits; got != 101 {
			t.Fatalf("%v answer-memo hits in 101 repeats", got)
		}
		if allocs != 0 {
			t.Errorf("a repeat range request answering %d ids took %v allocations, want 0", n, allocs)
		}
	}
}
