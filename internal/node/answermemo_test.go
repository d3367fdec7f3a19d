package node_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
)

// Acceptance suite of the coordinator answer memo (fetchcache.go): a repeat of
// a range or k-nn request is served from the memo exactly when no input of its
// answer can have changed — no notification from a holder it contacted, no
// publish at the coordinator when it contacted itself, no membership event —
// it resumes at retrieval over the kept plan, sending no can_search, exactly
// when only the stores changed, and every answer, memoized or not, equals the
// core.System oracle.

const (
	ctrAnswerHit    = "cache.answer_hit"
	ctrAnswerMiss   = "cache.answer_miss"
	ctrAnswerResume = "cache.answer_resume"
)

// answerKind names the two query kinds a request can be.
type answerKind int

const (
	kindRange answerKind = iota
	kindKNN
)

func (k answerKind) String() string { return [...]string{"range", "knn"}[k] }

// memoQuery is one (query, kind) of the suite and what its coordinator knew
// when it last answered it: the peers it contacted, its epoch, and whether
// the epoch held through the asking (so the plan was kept).
type memoQuery struct {
	i         int
	kind      answerKind
	contacted []int
	epoch     uint64
	planned   bool
}

// asked is what one asking did at its coordinator: served from the memo,
// resumed over a kept plan, and how many can_search RPCs the coordinator sent.
type asked struct {
	hit, resume bool
	sent        float64
}

// stored reports whether the last answer can have entered the memo: not if it
// contacted a peer that is gone, whose fetch came back unavailable.
func (m *memoQuery) stored(alive []bool) bool {
	for _, p := range m.contacted {
		if !alive[p] {
			return false
		}
	}
	return true
}

// answerWorld is a cache-on chan cluster with failure detection on (the crash
// needs it), the oracle it was cut from, and the suite's queries, each owned by
// one founder.
type answerWorld struct {
	t        *testing.T
	sys      *core.System
	cl       *node.Cluster
	client   *node.Client
	mopts    membership.Options
	alive    []bool
	founders int
	qs       [][]float64
	radii    []float64
	queries  []*memoQuery
	nextID   int
}

func startAnswerWorld(t *testing.T, seed int64) *answerWorld {
	t.Helper()
	params := cacheParams(seed)
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	t.Cleanup(func() { tr.Close() })
	mopts := membership.Options{ProbeInterval: 25 * time.Millisecond, ProbeTimeout: 150 * time.Millisecond, FailAfter: 2}
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" },
		transport.Policy{Timeout: 30e9}, mopts, node.Tuning{CacheViews: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	w := &answerWorld{t: t, sys: sys, cl: cl, client: node.NewClient(tr, transport.Policy{Timeout: 30e9}),
		mopts: mopts, alive: make([]bool, params.Peers), founders: 4, nextID: 9000}
	for p := range w.alive {
		w.alive[p] = true
	}
	w.qs, w.radii = queriesFor(t, sys, w.founders, w.founders)
	for i := range w.qs {
		w.queries = append(w.queries, &memoQuery{i: i, kind: kindRange}, &memoQuery{i: i, kind: kindKNN})
	}
	return w
}

func (w *answerWorld) coord(m *memoQuery) int { return m.i % w.founders }

// ask serves m once from its coordinator, checks the answer against the
// oracle, and reports what the coordinator's answer memo did with it.
func (w *answerWorld) ask(tag string, m *memoQuery) asked {
	w.t.Helper()
	c := w.coord(m)
	nd := w.cl.Nodes[c]
	q, ctx := w.qs[m.i], context.Background()
	before := nd.Counters()
	epoch := nd.Membership().Epoch()
	var scores []core.PeerScore
	var contacted int
	switch m.kind {
	case kindRange:
		want := w.sys.RangeQuery(c, q, w.radii[m.i], core.RangeOptions{})
		got, err := w.client.Range(ctx, w.cl.Addrs[c], q, w.radii[m.i], core.RangeOptions{})
		if err != nil {
			w.t.Fatalf("%s: range %d from %d: %v", tag, m.i, c, err)
		}
		if !slices.Equal(want.Items, got.Items) || want.PeersContacted != got.PeersContacted || want.OverlayHops != got.OverlayHops {
			w.t.Errorf("%s: range %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v", tag, m.i, c, want, got)
		}
		scores, contacted = got.Scores, got.PeersContacted
	case kindKNN:
		want := w.sys.KNNQuery(c, q, 5, core.KNNOptions{})
		got, err := w.client.KNN(ctx, w.cl.Addrs[c], q, 5, core.KNNOptions{})
		if err != nil {
			w.t.Fatalf("%s: knn %d from %d: %v", tag, m.i, c, err)
		}
		if !slices.Equal(want.Items, got.Items) || want.PeersContacted != got.PeersContacted || want.OverlayHops != got.OverlayHops {
			w.t.Errorf("%s: knn %d from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v", tag, m.i, c, want, got)
		}
		scores, contacted = got.Scores, got.PeersContacted
	}
	after := nd.Counters()
	hits, misses := after[ctrAnswerHit]-before[ctrAnswerHit], after[ctrAnswerMiss]-before[ctrAnswerMiss]
	resumes := after[ctrAnswerResume] - before[ctrAnswerResume]
	if hits+misses != 1 || resumes > misses {
		w.t.Fatalf("%s: %s %d counted %v answer-memo hits, %v misses and %v resumes, want one hit or one miss", tag, m.kind, m.i, hits, misses, resumes)
	}
	m.contacted = m.contacted[:0]
	for _, ps := range scores[:contacted] {
		m.contacted = append(m.contacted, ps.Peer)
	}
	m.epoch, m.planned = epoch, nd.Membership().Epoch() == epoch
	return asked{hit: hits == 1, resume: resumes == 1, sent: after["coord.can_search"] - before["coord.can_search"]}
}

// kept reports whether m's coordinator still holds the plan of m's last
// asking: the epoch held through that asking and has not moved since.
func (w *answerWorld) kept(m *memoQuery) bool {
	return m.planned && w.cl.Nodes[w.coord(m)].Membership().Epoch() == m.epoch
}

// checkAsked holds one asking to the rule: a hit exactly when hit says so,
// otherwise a resume exactly when the plan was kept, and a resume sends no
// can_search.
func (w *answerWorld) checkAsked(tag string, m *memoQuery, got asked, hit, kept bool) {
	w.t.Helper()
	c := w.coord(m)
	switch {
	case got.hit != hit:
		w.t.Errorf("%s: %s %d at coordinator %d (contacted %v): answer-memo hit %v, want %v", tag, m.kind, m.i, c, m.contacted, got.hit, hit)
	case !hit && got.resume != kept:
		w.t.Errorf("%s: %s %d at coordinator %d (contacted %v): resumed over a kept plan %v, want %v", tag, m.kind, m.i, c, m.contacted, got.resume, kept)
	case got.resume && got.sent != 0:
		w.t.Errorf("%s: %s %d at coordinator %d resumed over its plan and still sent %v can_search", tag, m.kind, m.i, c, got.sent)
	}
}

// event is what a step did to the coordinators' inputs: the peer that
// published (-1 for none) and the founders that handled a notification.
type event struct {
	holder   int
	notified map[int]bool
}

// sound reports whether serving m from the memo after ev is sound, from what m
// contacted when last answered: the answer was stored, and since then no
// membership event at its coordinator, no publish at the coordinator if it
// contacted itself, no notification to the coordinator from a holder it
// contacted.
func (w *answerWorld) sound(m *memoQuery, ev event) bool {
	c := w.coord(m)
	switch {
	case !m.stored(w.alive), w.cl.Nodes[c].Membership().Epoch() != m.epoch:
		return false
	case ev.holder == c:
		return !slices.Contains(m.contacted, c)
	case ev.notified[c]:
		return !slices.Contains(m.contacted, ev.holder)
	}
	return true
}

// pass asks every query of the founders in from (nil: all) twice, holding
// every answer to the oracle. The first asking must hit exactly when sound
// says so and otherwise resume exactly when the plan was kept; the repeat must
// hit exactly when the first was stored and otherwise resume. It returns the
// can_search RPCs the first askings sent.
func (w *answerWorld) pass(tag string, ev event, from map[int]bool) (sent float64) {
	w.t.Helper()
	for _, m := range w.queries {
		if from != nil && !from[w.coord(m)] {
			continue
		}
		hit, kept := w.sound(m, ev), w.kept(m)
		got := w.ask(tag, m)
		w.checkAsked(tag, m, got, hit, kept)
		sent += got.sent
		hit, kept = m.stored(w.alive), w.kept(m)
		w.checkAsked(tag+" repeat", m, w.ask(tag+" repeat", m), hit, kept)
	}
	return sent
}

// publish post-inserts item at holder on both sides and returns the event,
// with the founders that were notified.
func (w *answerWorld) publish(holder int, item []float64) event {
	w.t.Helper()
	before := make([]float64, w.founders)
	for f := range before {
		before[f] = w.cl.Nodes[f].Counters()["cache.fetch_inval"]
	}
	w.sys.PostInsert(holder, w.nextID, item)
	if err := w.client.Publish(context.Background(), w.cl.Addrs[holder], w.nextID, item); err != nil {
		w.t.Fatalf("publish %d at holder %d: %v", w.nextID, holder, err)
	}
	w.nextID++
	ev := event{holder: holder, notified: map[int]bool{}}
	for f := range before {
		ev.notified[f] = w.cl.Nodes[f].Counters()["cache.fetch_inval"] > before[f]
	}
	return ev
}

// target finds a query and a peer picked from it, or fails.
func (w *answerWorld) target(what string, pick func(m *memoQuery) int) (*memoQuery, int) {
	w.t.Helper()
	for _, m := range w.queries {
		if p := pick(m); p >= 0 {
			return m, p
		}
	}
	w.t.Fatalf("no query has %s", what)
	return nil, -1
}

// contactedBesides picks a peer m contacted other than its coordinator and
// skip, for range queries only.
func (w *answerWorld) contactedBesides(skip int) func(m *memoQuery) int {
	return func(m *memoQuery) int {
		if m.kind != kindRange {
			return -1
		}
		for _, p := range m.contacted {
			if p != w.coord(m) && p != skip {
				return p
			}
		}
		return -1
	}
}

// TestAnswerMemoDifferential asks every query twice around each event that
// can touch an answer — publishes at a contacted holder inside and outside the
// query sphere, at the coordinator itself and at a node the query did not
// contact, then a join, a graceful leave and a crash — and holds every asking
// to the oracle and the answer-memo counters to the soundness rule: a hit
// exactly where no input of the answer can have changed.
func TestAnswerMemoDifferential(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for s := 0; s < seeds; s++ {
		seed := int64(s + 1)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runAnswerMemoDifferential(t, seed)
		})
	}
}

func runAnswerMemoDifferential(t *testing.T, seed int64) {
	w := startAnswerWorld(t, seed)
	rng := rand.New(rand.NewSource(seed * 71))
	for _, m := range w.queries {
		w.checkAsked("cold", m, w.ask("cold", m), false, false)
		w.checkAsked("cold repeat", m, w.ask("cold repeat", m), true, false)
	}

	// Inside the sphere at a contacted holder: the holder notifies the
	// coordinator, whose answers through that holder go.
	m, h := w.target("a contacted holder besides its coordinator", w.contactedBesides(-1))
	ev := w.publish(h, near(w.qs[m.i], rng, w.radii[m.i]/100))
	if !ev.notified[w.coord(m)] {
		t.Errorf("a publish inside range %d's sphere at contacted holder %d did not notify coordinator %d", m.i, h, w.coord(m))
	}
	w.pass("inside at a contacted holder", ev, nil)

	// Outside every sphere at a contacted holder: nobody is notified, and
	// every answer stands.
	m, h = w.target("a second contacted holder besides its coordinator", w.contactedBesides(h))
	far := append([]float64(nil), w.qs[m.i]...)
	for d := range far {
		far[d] += 1e3
	}
	ev = w.publish(h, far)
	for f, got := range ev.notified {
		if got {
			t.Errorf("a publish outside every sphere at holder %d notified founder %d", h, f)
		}
	}
	w.pass("outside at a contacted holder", ev, nil)

	// At the coordinator itself, which contacted its own store.
	m, h = w.target("a coordinator that contacted itself", func(m *memoQuery) int {
		if slices.Contains(m.contacted, w.coord(m)) {
			return w.coord(m)
		}
		return -1
	})
	w.pass("at the coordinator", w.publish(h, near(w.qs[m.i], rng, w.radii[m.i]/100)), nil)

	// Inside the sphere at a node the query did not contact.
	m, u := w.target("an uncontacted live peer", func(m *memoQuery) int {
		for p, ok := range w.alive {
			if ok && p != w.coord(m) && !slices.Contains(m.contacted, p) {
				return p
			}
		}
		return -1
	})
	w.pass("at an uncontacted node", w.publish(u, near(w.qs[m.i], rng, w.radii[m.i]/100)), nil)

	// Churn. A coordinator whose epoch moved may serve nothing it memoized
	// before, bytes or plan: every one of them plans afresh, and each is held
	// to the oracle.
	ctx := context.Background()
	levels := w.sys.Config().Levels
	churn := func(tag string, do func()) {
		t.Helper()
		epochs := make([]uint64, w.founders)
		for f := range epochs {
			epochs[f] = w.cl.Nodes[f].Membership().Epoch()
		}
		do()
		waitClusterQuiesce(t, tag, w.cl, w.alive, levels, w.mopts.ProbeInterval)
		moved := map[int]bool{}
		for f := range epochs {
			if w.cl.Nodes[f].Membership().Epoch() != epochs[f] {
				moved[f] = true
			}
		}
		t.Logf("%s moved the epoch of founders %v", tag, moved)
		if sent := w.pass(tag, event{holder: -1}, moved); len(moved) > 0 && sent == 0 {
			t.Errorf("%s: the first askings after the epoch moved sent no can_search", tag)
		}
	}
	churn("join", func() {
		points := joinPoints(t, w.sys, rng)
		id, err := w.sys.JoinPeer(points)
		if err != nil {
			t.Fatalf("oracle join: %v", err)
		}
		nd, err := w.cl.Join(ctx, w.sys, w.cl.Addrs[0], points)
		if err != nil {
			t.Fatalf("live join: %v", err)
		}
		if nd.Peer() != id {
			t.Fatalf("live joiner took id %d, oracle assigned %d", nd.Peer(), id)
		}
		w.alive = append(w.alive, true)
	})
	founded := len(w.alive) - 1
	churn("leave", func() {
		victim := founded - 1
		if _, err := w.sys.LeavePeer(victim); err != nil {
			t.Fatalf("oracle leave: %v", err)
		}
		if err := w.cl.Nodes[victim].Leave(ctx); err != nil {
			t.Fatalf("live leave: %v", err)
		}
		w.cl.Nodes[victim].Stop()
		w.alive[victim] = false
	})
	churn("crash", func() {
		victim := founded - 2
		if _, err := w.sys.CrashPeer(victim); err != nil {
			t.Fatalf("oracle crash: %v", err)
		}
		w.cl.Nodes[victim].Stop()
		w.alive[victim] = false
	})
}

// TestAnswerMemoRepeatUnderPublish races the put guard: one goroutine repeats
// a range query while another publishes into the sphere at a holder the query
// contacts. An answer whose request left after a publish was acknowledged
// must hold that publish's item, however the two interleave.
func TestAnswerMemoRepeatUnderPublish(t *testing.T) {
	d := startDirCluster(t, cacheParams(5))
	qs, radii := queriesFor(t, d.sys, 4, 1)
	const c, publishes = 0, 30
	q, eps := qs[0], radii[0]
	oracle := d.sys.RangeQuery(c, q, eps, core.RangeOptions{})
	h := -1
	for _, ps := range oracle.Scores[:oracle.PeersContacted] {
		if ps.Peer != c {
			h = ps.Peer
			break
		}
	}
	if h < 0 {
		t.Fatal("the query contacts no holder besides its coordinator")
	}

	ctx := context.Background()
	var acked atomic.Int64 // publishes acknowledged so far
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < publishes; i++ {
			if err := d.client.Publish(ctx, d.cl.Addrs[h], 9000+i, near(q, rng, eps/100)); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
			acked.Store(int64(i + 1))
		}
	}()
	defer func() { <-done }()
	ask := func() []int {
		t.Helper()
		res, err := d.client.Range(ctx, d.cl.Addrs[c], q, eps, core.RangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Items
	}
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one last query, after every acknowledgement
		default:
		}
		seen := int(acked.Load())
		items := ask()
		for i := 0; i < seen; i++ {
			if !slices.Contains(items, 9000+i) {
				t.Fatalf("a query sent after %d acknowledged publishes lacks item %d", seen, 9000+i)
			}
		}
	}
	// With the stream over, a repeat is served from the memo.
	hits := d.cl.Nodes[c].Counters()[ctrAnswerHit]
	if items := ask(); len(items) != len(oracle.Items)+publishes {
		t.Errorf("the quiet repeat holds %d ids, want %d", len(items), len(oracle.Items)+publishes)
	}
	if d.cl.Nodes[c].Counters()[ctrAnswerHit] != hits+1 {
		t.Error("the quiet repeat after the publish stream missed the answer memo")
	}
}

// TestAnswerMemoConcurrentResume runs range and k-nn repeats from several
// goroutines, one coordinator each, while a publish stream goes into a holder
// every range query contacts: answers drop their bytes, keep their plans and
// resume, concurrently with asking, storing and dropping. A range answer asked
// after a publish was acknowledged must hold its item; once the stream is
// over every answer must equal the oracle that took the same publishes.
func TestAnswerMemoConcurrentResume(t *testing.T) {
	d := startDirCluster(t, cacheParams(6))
	const coords, publishes = 4, 24
	qs, radii := queriesFor(t, d.sys, coords, coords)
	// The holder: a peer every query's range retrieval contacts besides its
	// coordinator, so every publish below reaches every range answer.
	h := -1
	for p := 0; p < len(d.cl.Nodes) && h < 0; p++ {
		h = p
		for i, q := range qs {
			res := d.sys.RangeQuery(i, q, radii[i], core.RangeOptions{})
			if p == i || !slices.ContainsFunc(res.Scores[:res.PeersContacted], func(ps core.PeerScore) bool { return ps.Peer == p }) {
				h = -1
				break
			}
		}
	}
	if h < 0 {
		t.Fatal("no holder is contacted by every query")
	}

	ctx := context.Background()
	items := make([][]float64, publishes)
	rng := rand.New(rand.NewSource(11))
	for i := range items {
		items[i] = near(qs[i%coords], rng, radii[i%coords]/100)
	}
	// Warm every coordinator's memo: the stream then finds answers to drop.
	for c := 0; c < coords; c++ {
		d.checkRange("warm", c, qs[c], radii[c])
		d.checkKNN("warm", c, qs[c], 5)
	}
	var acked atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, item := range items {
			if err := d.client.Publish(ctx, d.cl.Addrs[h], 9000+i, item); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
			acked.Store(int64(i + 1))
		}
	}()
	for c := 0; c < coords; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round, finished := 0, false; !finished; round++ {
				select {
				case <-done:
					finished = round >= 3
				default:
				}
				seen := int(acked.Load())
				res, err := d.client.Range(ctx, d.cl.Addrs[c], qs[c], radii[c], core.RangeOptions{})
				if err != nil {
					t.Errorf("range at %d: %v", c, err)
					return
				}
				for i := c; i < seen; i += coords {
					if !slices.Contains(res.Items, 9000+i) {
						t.Errorf("a range query at %d sent after %d acknowledged publishes lacks item %d", c, seen, 9000+i)
						return
					}
				}
				if _, err := d.client.KNN(ctx, d.cl.Addrs[c], qs[c], 5, core.KNNOptions{}); err != nil {
					t.Errorf("knn at %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, item := range items {
		d.sys.PostInsert(h, 9000+i, item)
	}
	for c := 0; c < coords; c++ {
		d.checkRange("after the stream", c, qs[c], radii[c])
		d.checkKNN("after the stream", c, qs[c], 5)
	}
	if sumCounter(d.cl, ctrAnswerResume) == 0 {
		t.Error("no asking resumed over a kept plan under the publish stream")
	}
}

// hookTransport runs a hook once: after the first call it matches has
// returned, before its caller sees the response.
type hookTransport struct {
	transport.Transport
	mu    sync.Mutex
	match func(addr string, req transport.Request) bool
	hook  func()
}

func (h *hookTransport) arm(match func(addr string, req transport.Request) bool, hook func()) {
	h.mu.Lock()
	h.match, h.hook = match, hook
	h.mu.Unlock()
}

func (h *hookTransport) Call(ctx context.Context, addr string, req transport.Request) (transport.Response, error) {
	resp, err := h.Transport.Call(ctx, addr, req)
	h.mu.Lock()
	var hook func()
	if h.hook != nil && h.match(addr, req) {
		hook, h.hook = h.hook, nil
	}
	h.mu.Unlock()
	if hook != nil {
		hook()
	}
	return resp, err
}

// TestAnswerMemoPutGuard stages the two races the put guard exists for. A
// query's fetch response from holder H leaves H, and before the coordinator
// sees it, either a publish inside the sphere lands at H — its notification
// comes and goes, and the response predates it — or a join splits the
// coordinator's own zones and a second request resets the memo to the new
// epoch. The first answer is returned, as its request predates both; it must
// not be memoized: the next asking misses and equals the oracle. Its plan
// stands across the publish, so that asking resumes over it, and falls with
// the join.
func TestAnswerMemoPutGuard(t *testing.T) {
	const c, id = 0, 9000
	for _, tc := range []struct {
		name   string
		resume bool
		stage  func(w *guardWorld)
		check  func(w *guardWorld, first core.RangeResult)
	}{
		{"publish at the holder", true, func(w *guardWorld) {
			w.sys.PostInsert(w.h, id, w.item)
			if err := w.cl.Nodes[w.h].Publish(id, w.item); err != nil {
				w.t.Errorf("publish at holder %d: %v", w.h, err)
			}
		}, func(w *guardWorld, first core.RangeResult) {
			if slices.Contains(first.Items, id) {
				w.t.Error("the first answer already holds the item: the publish did not land inside the query")
			}
		}},
		{"join at the coordinator", false, func(w *guardWorld) {
			epoch := w.cl.Nodes[c].Membership().Epoch()
			points := make([][]float64, w.sys.Config().Levels)
			for l := range points {
				z := w.cl.Nodes[c].Membership().View(l).Zones[0]
				points[l] = make([]float64, len(z.Lo))
				for d := range points[l] {
					points[l][d] = (z.Lo[d] + z.Hi[d]) / 2
				}
			}
			if _, err := w.sys.JoinPeer(points); err != nil {
				w.t.Errorf("oracle join: %v", err)
			}
			if _, err := w.cl.Join(context.Background(), w.sys, w.addrs[c], points); err != nil {
				w.t.Errorf("live join: %v", err)
			}
			if w.cl.Nodes[c].Membership().Epoch() == epoch {
				w.t.Error("a join splitting the coordinator's zones left its epoch alone")
			}
			// Any request resets the memo to the new epoch; one refused for
			// its dimension does so and leaves ansSeq alone.
			if _, err := w.client.Range(context.Background(), w.addrs[c], w.qs[1][:1], w.radii[1], core.RangeOptions{}); err == nil {
				w.t.Error("a query of the wrong dimension was answered")
			}
		}, func(*guardWorld, core.RangeResult) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := startGuardWorld(t, c)
			w.tr.arm(func(addr string, req transport.Request) bool {
				return addr == w.addrs[w.h] && req.Method == "fetch_range"
			}, func() { tc.stage(w) })
			ctx := context.Background()
			first, err := w.client.Range(ctx, w.addrs[c], w.qs[0], w.radii[0], core.RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tc.check(w, first)
			before := w.cl.Nodes[c].Counters()
			got, err := w.client.Range(ctx, w.addrs[c], w.qs[0], w.radii[0], core.RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := w.sys.RangeQuery(c, w.qs[0], w.radii[0], core.RangeOptions{}); !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
				t.Errorf("the asking after the race diverged from the oracle:\nsim:    %+v\nserved: %+v", want, got)
			}
			after := w.cl.Nodes[c].Counters()
			if after[ctrAnswerMiss] != before[ctrAnswerMiss]+1 {
				t.Error("the asking after the race hit the answer memo: the answer built across it was kept")
			}
			if resumed := after[ctrAnswerResume] > before[ctrAnswerResume]; resumed != tc.resume {
				t.Errorf("the asking after the race resumed over a kept plan: %v, want %v", resumed, tc.resume)
			}
		})
	}
}

// guardWorld is a cache-on chan cluster on a hookTransport, with a query of
// coordinator c and a holder h it contacts besides c.
type guardWorld struct {
	t      *testing.T
	sys    *core.System
	tr     *hookTransport
	cl     *node.Cluster
	addrs  []string // the founders' addresses, read by the hook while the cluster grows
	client *node.Client
	qs     [][]float64
	radii  []float64
	h      int
	item   []float64 // inside query 0's sphere
}

func startGuardWorld(t *testing.T, c int) *guardWorld {
	t.Helper()
	sys, err := experiments.BuildMarkovSystem(cacheParams(3))
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := &hookTransport{Transport: transport.NewChan()}
	t.Cleanup(func() { tr.Close() })
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" },
		transport.Policy{Timeout: 30e9}, membership.Options{}, node.Tuning{CacheViews: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	w := &guardWorld{t: t, sys: sys, tr: tr, cl: cl, addrs: slices.Clone(cl.Addrs), client: node.NewClient(tr, transport.Policy{Timeout: 30e9}), h: -1}
	w.qs, w.radii = queriesFor(t, sys, 4, 2)
	oracle := sys.RangeQuery(c, w.qs[0], w.radii[0], core.RangeOptions{})
	for _, ps := range oracle.Scores[:oracle.PeersContacted] {
		if ps.Peer != c {
			w.h = ps.Peer
			break
		}
	}
	if w.h < 0 {
		t.Fatal("the query contacts no holder besides its coordinator")
	}
	w.item = near(w.qs[0], rand.New(rand.NewSource(1)), w.radii[0]/100)
	return w
}
