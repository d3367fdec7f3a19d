package node

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// White-box tests of the fetch directory (fetchcache.go): the cases that need
// to stand between the halves of a handler, overflow the directory, or read
// who is listed where. The end-to-end half is fetchdir_cluster_test.go.

// dirWorld is a cache-on chan cluster next to the oracle it was cut from.
type dirWorld struct {
	t      *testing.T
	sys    *core.System
	cl     *Cluster
	nextID int
}

func startDirWorld(t *testing.T, peers int, seed int64) *dirWorld {
	t.Helper()
	sys, err := experiments.BuildMarkovSystem(experiments.Params{Peers: peers, ItemsPerPeer: 20, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: seed})
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
	return &dirWorld{t: t, sys: sys, cl: cl, nextID: 9000}
}

// ask sends one request to from's handler, so a query runs through the answer
// memo and keeps slots, and returns the response body.
func (w *dirWorld) ask(tag string, from int, method string, body []byte) []byte {
	w.t.Helper()
	resp, err := w.cl.Nodes[from].handle(context.Background(), transport.Request{Method: method, Body: body})
	if err != nil {
		w.t.Fatalf("%s: %s from %d: %v", tag, method, from, err)
	}
	return resp.Body
}

// checkRange compares one range answer, asked over the wire, with the
// oracle's.
func (w *dirWorld) checkRange(tag string, from int, q []float64, eps float64) {
	w.t.Helper()
	want := w.sys.RangeQuery(from, q, eps, core.RangeOptions{})
	got, err := decodeRangeResp(w.ask(tag, from, methodRange, encodeRangeReq(q, eps, core.RangeOptions{})))
	if err != nil {
		w.t.Fatal(err)
	}
	if !slices.Equal(want.Items, got.Items) || want.PeersContacted != got.PeersContacted || want.OverlayHops != got.OverlayHops {
		w.t.Errorf("%s: range from peer %d diverged from oracle: want %d items got %d", tag, from, len(want.Items), len(got.Items))
	}
}

func (w *dirWorld) checkKNN(tag string, from int, q []float64, k int) {
	w.t.Helper()
	want := w.sys.KNNQuery(from, q, k, core.KNNOptions{})
	got, err := transport.Decode(w.ask(tag, from, methodKNN, encodeKNNReq(q, k, core.KNNOptions{})), walkKNNResp)
	if err != nil {
		w.t.Fatal(err)
	}
	if !slices.Equal(want.Items, got.Items) || want.PeersContacted != got.PeersContacted {
		w.t.Errorf("%s: knn from peer %d diverged from oracle: want %v got %v", tag, from, want.Items, got.Items)
	}
}

// publish post-inserts item at holder on both sides.
func (w *dirWorld) publish(holder int, item []float64) {
	w.t.Helper()
	w.sys.PostInsert(holder, w.nextID, item)
	if err := w.cl.Nodes[holder].Publish(w.nextID, item); err != nil {
		w.t.Fatalf("publish at holder %d: %v", holder, err)
	}
	w.nextID++
}

func (w *dirWorld) invalsAt(peer int) float64 {
	return w.cl.Nodes[peer].Counters()["cache.fetch_inval"]
}

// checkInvariant asserts the directory invariant on a quiescent cluster:
// whenever an answer entry of coordinator C holds a slot for (holder H, key
// K), C is among the sharers of H's line for K. A holder under the lost mark
// is exempt — the mark is what stands in for the lines it dropped — and so is
// C's own slot, which no line covers (TestAnswerMemoOwnSlotGuard).
func (w *dirWorld) checkInvariant(tag string) {
	w.t.Helper()
	for _, c := range w.cl.Nodes {
		c.ansMu.Lock()
		for key, e := range c.answers {
			for _, s := range e.slots {
				if s.peer == c.peer {
					continue
				}
				holder := w.cl.Nodes[s.peer]
				query := key[:5+8*binary.BigEndian.Uint32([]byte(key[1:5]))] // a request body starts with its query
				line := binary.BigEndian.AppendUint64([]byte(query), s.tail)
				holder.fetchMu.Lock()
				if l := holder.fetchDir[string(line)]; !holder.fetchLost && (l == nil || !slices.Contains(l.sharers, c.peer)) {
					w.t.Errorf("%s: coordinator %d holds a slot of holder %d (%c, %d bytes) that lists it nowhere", tag, c.peer, s.peer, line[0], len(line))
				}
				holder.fetchMu.Unlock()
			}
		}
		c.ansMu.Unlock()
	}
}

// slotsOf counts the slots of holder h (of every holder, for h < 0) in nd's
// answer memo.
func slotsOf(nd *Node, h int) int {
	nd.ansMu.Lock()
	defer nd.ansMu.Unlock()
	n := 0
	for _, e := range nd.answers {
		for _, s := range e.slots {
			if h < 0 || s.peer == h {
				n++
			}
		}
	}
	return n
}

// spheres picks, among holder h's items, a centre x and the item farthest from
// it, with radii such that a publish next to x changes a range answer around x
// and leaves one around far alone.
func (w *dirWorld) spheres(h int) (x, far []float64, epsNear, epsFar float64) {
	_, items := w.sys.PeerData(h)
	x, far = items[0], items[0]
	var farDist float64
	for _, it := range items {
		if d := vec.Dist(x, it); d > farDist {
			far, farDist = it, d
		}
	}
	return x, far, farDist / 4, farDist / 2
}

func nudged(q []float64, rng *rand.Rand, scale float64) []float64 {
	item := append([]float64(nil), q...)
	for i := range item {
		item[i] += scale * (rng.Float64() - 0.5)
	}
	return item
}

// TestFetchDirPendingLines stands between a handler's two halves — register
// before the scan, fill after it — with a publish sweep in the middle. A
// pending range line (its bound eps², known from the key) the item misses
// stays fillable; one it hits, and any pending k-nn line (bound +Inf), has its
// sharers notified and its late fill refused.
func TestFetchDirPendingLines(t *testing.T) {
	w := startDirWorld(t, 6, 2)
	const h, cNear, cFar, cKNN = 0, 1, 2, 3
	holder := w.cl.Nodes[h]
	x, far, epsNear, epsFar := w.spheres(h)
	item := nudged(x, rand.New(rand.NewSource(1)), epsNear/100)
	inf := math.Inf(1)

	var kb [3][512]byte
	keyNear := fetchKey(kb[0][:], 'r', x, math.Float64bits(epsNear))
	keyFar := fetchKey(kb[1][:], 'r', far, math.Float64bits(epsFar))
	keyKNN := fetchKey(kb[2][:], 'k', far, 3)
	lineNear := holder.registerFetch(keyNear, cNear, epsNear*epsNear)
	lineFar := holder.registerFetch(keyFar, cFar, epsFar*epsFar)
	lineKNN := holder.registerFetch(keyKNN, cKNN, inf)
	if lineNear.bound != epsNear*epsNear || lineKNN.bound != inf {
		t.Fatalf("lines nobody filled opened at bounds %v (range) and %v (k-nn), want eps² %v and +Inf", lineNear.bound, lineKNN.bound, epsNear*epsNear)
	}
	// Registering twice lists a sharer once.
	if again := holder.registerFetch(keyFar, cFar, epsFar*epsFar); again != lineFar || len(lineFar.sharers) != 1 {
		t.Errorf("second registration: same line %v, sharers %v, want the same line listing %d once", again == lineFar, lineFar.sharers, cFar)
	}

	// The k-nn bound its handler would have scanned before the publish.
	knnBefore := knnFetch.bound(holder.localKNN(far, 3), 3)
	w.publish(h, item)
	if got := []float64{w.invalsAt(cNear), w.invalsAt(cFar), w.invalsAt(cKNN)}; !slices.Equal(got, []float64{1, 0, 1}) {
		t.Errorf("inval_fetch at (near, far, knn) sharers = %v, want [1 0 1]", got)
	}

	if !holder.fillFetch(keyFar, lineFar, epsFar*epsFar) || holder.fetchDir[string(keyFar)] != lineFar {
		t.Error("the pending range line the publish missed was not filled")
	}
	for name, c := range map[string]struct {
		key  []byte
		line *fetchLine
		sub  int
		b    float64
	}{"covered range": {keyNear, lineNear, cNear, epsNear * epsNear}, "k-nn": {keyKNN, lineKNN, cKNN, knnBefore}} {
		if holder.fillFetch(c.key, c.line, c.b) {
			t.Errorf("pending %s line: a fill scanned before the publish was accepted", name)
		}
		if l := holder.fetchDir[string(c.key)]; l != nil && slices.Contains(l.sharers, c.sub) {
			t.Errorf("pending %s line: sharers %v survived the sweep that notified them", name, l.sharers)
		}
	}
	// The lines opened now belong to new handlers: the old ones still cannot
	// fill them, the new ones can.
	fresh := holder.registerFetch(keyKNN, cKNN, inf)
	if holder.fillFetch(keyKNN, lineKNN, knnBefore) || fresh.bound != inf {
		t.Error("a handler swept off its line filled the line that replaced it")
	}
	want := knnFetch.bound(holder.localKNN(far, 3), 3)
	if !holder.fillFetch(keyKNN, fresh, want) || fresh.bound != want || math.IsInf(want, 1) {
		t.Errorf("the replacing line was not fillable by its own handler: bound %v, want the k-th distance² %v", fresh.bound, want)
	}
	if !holder.fillFetch(keyKNN, fresh, 0) || fresh.bound != want {
		t.Errorf("a second fill moved a filled line's bound from %v to %v", want, fresh.bound)
	}
}

// TestFetchDirRescansSweptHandler stands a publish inside a subscribing
// handler's scan: the scan reads the store, then an item near q is published,
// whose sweep takes the handler's line away. The handler must not answer with
// what it read — no line would list its subscriber for that answer, and no
// later publish would reach the slot it becomes — but register again and
// rescan.
func TestFetchDirRescansSweptHandler(t *testing.T) {
	t.Run("range", func(t *testing.T) { testRescansSweptHandler(t, rangeFetch, math.Float64bits) })
	t.Run("knn", func(t *testing.T) { testRescansSweptHandler(t, knnFetch, func(float64) uint64 { return 3 }) })
}

func testRescansSweptHandler[T any](t *testing.T, kind fetchKind[T], tailOf func(eps float64) uint64) {
	w := startDirWorld(t, 6, 2)
	const h, c = 0, 1
	holder := w.cl.Nodes[h]
	x, _, eps, _ := w.spheres(h)
	item := nudged(x, rand.New(rand.NewSource(1)), eps/100)
	key := fetchKey(nil, kind.tag, x, tailOf(eps))
	scans := 0
	resp, err := serveFetch(holder, kind, appendSubscriber(key[1:], c), func(n *Node, q []float64, tail uint64) T {
		val := kind.local(n, q, tail)
		if scans++; scans == 1 {
			w.publish(h, item)
		}
		return val
	})
	if err != nil {
		t.Fatal(err)
	}
	want := kind.local(holder, x, tailOf(eps))
	if !slices.Equal(resp.Body, kind.encode(want)) {
		t.Errorf("the handler answered with what it read before the publish (%d scans)", scans)
	}
	if scans != 2 {
		t.Errorf("%d scans, want 2: one swept, one kept", scans)
	}
	if l := holder.fetchDir[string(key)]; l == nil || !slices.Contains(l.sharers, c) {
		t.Error("no line lists the subscriber for the answer it was handed")
	}
}

// TestFetchDirHandlerAllocs fences what a holder's fetch handler allocates
// beside its scan and the encoded answer: the decoded query, nothing else, in
// the plain form and for a sharer already on its line. (A codec called
// through a func value put its coder and the answer on the heap: three more.)
func TestFetchDirHandlerAllocs(t *testing.T) {
	w := startDirWorld(t, 6, 2)
	holder, ctx := w.cl.Nodes[0], context.Background()
	x, _, eps, _ := w.spheres(0)
	for _, tc := range []struct {
		name, method string
		body         []byte
		answer       func()
	}{
		{"range", methodFetchRange, encodeFetchRangeReq(x, eps), func() { encodeFetchRangeResp(holder.localRange(x, eps)) }},
		{"knn", methodFetchKNN, encodeFetchKNNReq(x, 3), func() { encodeFetchKNNResp(holder.localKNN(x, 3)) }},
	} {
		want := testing.AllocsPerRun(50, tc.answer) + 1
		for _, body := range [][]byte{tc.body, appendSubscriber(tc.body, 1)} {
			req := transport.Request{Method: tc.method, Body: body}
			if allocs := testing.AllocsPerRun(50, func() { holder.handle(ctx, req) }); allocs > want {
				t.Errorf("%s (%d-byte request): %.0f allocs, want <= %.0f (the scan, the body and the query)", tc.name, len(body), allocs, want)
			}
		}
	}
}

// TestFetchDirLostMark: when a holder's directory forgets lines it still owes
// for — the fetchMemoCap reset — the next publish falls back to
// telling every coordinator ever served to drop all it holds of that holder,
// the mark clears, and the publish after is targeted again. Answers equal the
// oracle throughout.
func TestFetchDirLostMark(t *testing.T) {
	const h, c1, c2 = 4, 0, 1
	for _, tc := range []struct {
		name string
		lose func(w *dirWorld, x []float64)
	}{
		{"cap", func(w *dirWorld, x []float64) {
			// One more distinct key than the directory holds, asked by C1.
			for i := 0; i <= fetchMemoCap; i++ {
				req := transport.Request{Method: methodFetchRange, Body: appendSubscriber(encodeFetchRangeReq(x, float64(i+1)*1e-9), c1)}
				if _, err := w.cl.Nodes[h].handle(context.Background(), req); err != nil {
					w.t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := startDirWorld(t, 8, 5)
			holder := w.cl.Nodes[h]
			x, far, epsNear, epsFar := w.spheres(h)
			rng := rand.New(rand.NewSource(2))
			pass := func(tag string) {
				t.Helper()
				w.checkRange(tag+" c1", c1, x, epsNear)
				w.checkRange(tag+" c2", c2, far, epsFar)
				w.checkKNN(tag+" c2", c2, far, 3)
				w.checkInvariant(tag)
			}
			pass("cold")
			tc.lose(w, x)
			if !holder.fetchLost {
				t.Fatal("dropping lines with sharers on them set no lost mark")
			}
			pass("lost") // no publish yet: the old entries are still right

			// The publish changes C1's answer only, but H no longer knows who
			// holds what: both coordinators are told to drop everything.
			inv1, inv2 := w.invalsAt(c1), w.invalsAt(c2)
			w.publish(h, nudged(x, rng, epsNear/100))
			if d1, d2 := w.invalsAt(c1)-inv1, w.invalsAt(c2)-inv2; d1 != 1 || d2 != 1 {
				t.Errorf("publish under the lost mark notified C1 %v times and C2 %v times, want 1 and 1", d1, d2)
			}
			for _, c := range []int{c1, c2} {
				if left := slotsOf(w.cl.Nodes[c], h); left != 0 {
					t.Errorf("coordinator %d kept %d slots of holder %d through a drop-all", c, left, h)
				}
			}
			if holder.fetchLost {
				t.Error("lost mark still set after every coordinator acknowledged")
			}
			pass("refill")

			// Mark cleared, directory rebuilt: targeted again.
			inv1, inv2 = w.invalsAt(c1), w.invalsAt(c2)
			w.publish(h, nudged(x, rng, epsNear/100))
			if d1, d2 := w.invalsAt(c1)-inv1, w.invalsAt(c2)-inv2; d1 != 1 || d2 != 0 {
				t.Errorf("publish after the mark cleared notified C1 %v times and C2 %v times, want 1 and 0", d1, d2)
			}
			pass("after")
		})
	}
}

// TestFetchDirRefusesUnknownSubscribers: a subscriber id is a peer's bytes. One
// the holder cannot resolve to an address — a joiner it has not met, a junk id
// — registers nothing and is refused with the no-callback classification, so
// 1,000 distinct bogus ids grow neither the directory nor the goroutine count,
// and the next publish has nobody to call.
func TestFetchDirRefusesUnknownSubscribers(t *testing.T) {
	w := startDirWorld(t, 6, 4)
	const h = 2
	holder := w.cl.Nodes[h]
	x, _, eps, _ := w.spheres(h)
	ctx := context.Background()
	ask := func(sub int) error {
		req := transport.Request{Method: methodFetchRange, Body: appendSubscriber(encodeFetchRangeReq(x, eps), sub)}
		_, err := holder.handle(ctx, req)
		return err
	}

	goroutines := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		err := ask(1<<20 + i)
		if transport.ErrorDetail(err) != detailNoCallback {
			t.Fatalf("subscriber %d: err = %v, want a %s refusal", 1<<20+i, err, detailNoCallback)
		}
	}
	if len(holder.fetchDir) != 0 || len(holder.fetchServed) != 0 {
		t.Errorf("1000 refused subscribers left %d lines and %d served coordinators", len(holder.fetchDir), len(holder.fetchServed))
	}
	w.publish(h, nudged(x, rand.New(rand.NewSource(3)), eps/100))
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("goroutines grew from %d to %d", goroutines, got)
	}
	for p, nd := range w.cl.Nodes {
		if got := nd.Counters()["rpc.inval_fetch"]; got != 0 {
			t.Errorf("peer %d received %v inval_fetch from a holder nobody is registered at", p, got)
		}
	}

	// A resolvable subscriber is listed, once however often it asks.
	for i := 0; i < 3; i++ {
		if err := ask(0); err != nil {
			t.Fatal(err)
		}
	}
	if len(holder.fetchDir) != 1 || len(holder.fetchServed) != 1 {
		t.Errorf("one subscriber asking one key thrice left %d lines and %d served coordinators", len(holder.fetchDir), len(holder.fetchServed))
	}
	for _, line := range holder.fetchDir {
		if !slices.Equal(line.sharers, []int{0}) {
			t.Errorf("sharers = %v, want [0]", line.sharers)
		}
	}
}

// TestFetchDirIgnoresUnknownHolders is the coordinator twin of
// TestFetchDirRefusesUnknownSubscribers: the holder id of a notification is a
// peer's bytes too. 1,000 notifications naming distinct ids this node never
// asked — at a caching coordinator and at an uncached one — are each answered
// with a nil error (an error would make a real holder strike a live sharer
// from every line), leave no per-holder state behind, and drop no answer.
func TestFetchDirIgnoresUnknownHolders(t *testing.T) {
	for _, tuning := range []Tuning{{CacheViews: true}, {}} {
		t.Run(fmt.Sprintf("cache=%v", tuning.CacheViews), func(t *testing.T) {
			nd, ctx := startProbeCluster(t, 4, tuning).Nodes[0], context.Background()
			q := zoneCenter(nd, 0)
			q = append(q, make([]float64, nd.cfg.Dim-len(q))...)
			query := transport.Request{Method: methodRange, Body: encodeRangeReq(q, 0.5, core.RangeOptions{})}
			if _, err := nd.handle(ctx, query); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				req := transport.Request{Method: methodFetchInval, Body: encodeInvalReq(1<<20+i, [][]float64{q})}
				if _, err := nd.handle(ctx, req); err != nil {
					t.Fatalf("notification from unknown holder %d: %v", 1<<20+i, err)
				}
			}
			if len(nd.ansFlight) != 0 {
				t.Errorf("1000 notifications from unknown holders left state for %d holders", len(nd.ansFlight))
			}
			hits := nd.Counters()[ctrAnswerHit]
			if _, err := nd.handle(ctx, query); err != nil {
				t.Fatal(err)
			}
			if got := nd.Counters()[ctrAnswerHit] - hits; tuning.CacheViews && got != 1 {
				t.Errorf("notifications from holders the query never contacted dropped its answer")
			}
		})
	}
}

// TestFetchDirJoinerCachesOnlyWhereListed is the invariant on the topology
// that used to break it: after a live join, the joiner caches answers of the
// holders that know its address and serves the rest uncached.
func TestFetchDirJoinerCachesOnlyWhereListed(t *testing.T) {
	w := startDirWorld(t, 12, 1)
	rng := rand.New(rand.NewSource(7))
	points := make([][]float64, w.sys.Config().Levels)
	for l := range points {
		points[l] = make([]float64, len(zoneCenter(w.cl.Nodes[0], l)))
		for d := range points[l] {
			points[l][d] = rng.Float64()
		}
	}
	id, err := w.sys.JoinPeer(points)
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := w.cl.Join(context.Background(), w.sys, w.cl.Addrs[0], points)
	if err != nil {
		t.Fatal(err)
	}
	if joiner.Peer() != id {
		t.Fatalf("live joiner took id %d, oracle assigned %d", joiner.Peer(), id)
	}
	x, far, epsNear, epsFar := w.spheres(3)
	for pass := 0; pass < 2; pass++ {
		w.checkRange("joiner", id, x, 2*epsFar)
		w.checkRange("joiner", id, far, epsNear)
		w.checkKNN("joiner", id, x, 5)
	}
	w.checkInvariant("after join")
	strangers := 0
	for h, holder := range w.cl.Nodes[:id] {
		if _, err := holder.peerAddr(id); err == nil {
			continue
		}
		strangers++
		if n := slotsOf(joiner, h); n != 0 {
			t.Errorf("joiner caches %d answers of holder %d, which has no address for it", n, h)
		}
	}
	if strangers == 0 {
		t.Fatal("every founder knows the joiner's address: the test exercises nothing")
	}
	if slotsOf(joiner, -1) == 0 {
		t.Error("joiner cached nothing, not even from its neighbours")
	}
}

// TestFetchDirHitAndEmptySweepAllocNothing fences the two paths that run far
// more often than any RPC: a slot hit (about 22 per resumed query on the
// skewed workload) is a look through the request's slot table — no request,
// no goroutine, no lock, nothing allocated per holder, only the slice of
// answer slots the call returns and the table's list of what it read — and a
// publish at a holder with no directory returns from the sweep untouched.
func TestFetchDirHitAndEmptySweepAllocNothing(t *testing.T) {
	w := startDirWorld(t, 6, 6)
	const c = 0
	nd, ctx := w.cl.Nodes[c], context.Background()
	x, _, eps, _ := w.spheres(1)
	// A range and a k-nn request over the wire store their slots; the
	// retrievals below ask exactly the holders those slots are of.
	entry := func(method string, tag byte, body []byte) *slotTable {
		w.ask("fill", c, method, body)
		return &slotTable{held: nd.answers[string(append([]byte{tag}, body...))].slots}
	}
	rt := entry(methodRange, 'r', encodeRangeReq(x, eps, core.RangeOptions{}))
	kt := entry(methodKNN, 'k', encodeKNNReq(x, 5, core.KNNOptions{}))
	var rangeHolders, knnHolders, wants []int
	for _, s := range rt.held {
		rangeHolders = append(rangeHolders, s.peer)
	}
	for _, s := range kt.held {
		knnHolders, wants = append(knnHolders, s.peer), append(wants, int(int64(s.tail)))
	}
	if len(rangeHolders) < 2 || len(knnHolders) < 2 {
		t.Fatalf("the requests kept %d and %d slots: the fence needs several", len(rangeHolders), len(knnHolders))
	}
	b := &netBackend{n: nd, ctx: ctx}
	rctx, kctx := context.WithValue(ctx, slotsKey{}, rt), context.WithValue(ctx, slotsKey{}, kt)
	fetch := func() {
		if _, errs := b.FetchRange(rctx, c, rangeHolders, x, eps); errs != nil {
			t.Fatal(errs)
		}
		if _, errs := b.FetchKNN(kctx, c, knnHolders, wants, x); errs != nil {
			t.Fatal(errs)
		}
	}
	hits := nd.Counters()["cache.fetch_local_hit"]
	if allocs := testing.AllocsPerRun(100, fetch); allocs != 4 {
		t.Errorf("a range and a k-nn retrieval served from %d and %d slots took %.0f allocs, want 4 (the answer slots and the read lists)", len(rangeHolders), len(knnHolders), allocs)
	}
	if got, want := nd.Counters()["cache.fetch_local_hit"]-hits, float64(101*(len(rangeHolders)+len(knnHolders))); got != want {
		t.Errorf("%v slot hits in 101 runs of the two retrievals, want %v", got, want)
	}

	idle := w.cl.Nodes[5] // served nobody: empty directory, no lost mark
	items := [][]float64{x}
	if allocs := testing.AllocsPerRun(100, func() { idle.sweepFetchDir(items) }); allocs != 0 {
		t.Errorf("sweep of an empty directory took %.0f allocs, want 0", allocs)
	}
}

// TestFetchDirKeyIsTaggedPlainRequest: the coordinator builds its memo key from
// the arguments and the holder from the request bytes; they must be the same
// bytes, or no sweep would ever find a coordinator's line.
func TestFetchDirKeyIsTaggedPlainRequest(t *testing.T) {
	q := []float64{0.25, -1, 3e300, 0}
	var kb [512]byte
	if got, want := fetchKey(kb[:], 'r', q, math.Float64bits(0.5)), append([]byte{'r'}, encodeFetchRangeReq(q, 0.5)...); !slices.Equal(got, want) {
		t.Errorf("range key %x, want %x", got, want)
	}
	if got, want := fetchKey(kb[:], 'k', q, 7), append([]byte{'k'}, encodeFetchKNNReq(q, 7)...); !slices.Equal(got, want) {
		t.Errorf("k-nn key %x, want %x", got, want)
	}
	long := make([]float64, 100) // past the stack buffer
	if got, want := fetchKey(kb[:], 'r', long, math.Float64bits(1)), append([]byte{'r'}, encodeFetchRangeReq(long, 1)...); !slices.Equal(got, want) {
		t.Error("key of a query too long for the buffer differs from its request")
	}
}
