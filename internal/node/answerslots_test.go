package node

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// slotQuery is one request of the slot tests, asked over the wire at its
// coordinator: the method, the body, and the oracle's answer to it.
type slotQuery struct {
	name   string
	method string
	body   []byte
	oracle func() (items []int, contacted []core.PeerScore)
}

func rangeSlotQuery(w *dirWorld, name string, c int, q []float64, eps float64) slotQuery {
	return slotQuery{name, methodRange, encodeRangeReq(q, eps, core.RangeOptions{}), func() ([]int, []core.PeerScore) {
		res := w.sys.RangeQuery(c, q, eps, core.RangeOptions{})
		return res.Items, res.Scores[:res.PeersContacted]
	}}
}

func knnSlotQuery(w *dirWorld, name string, c int, q []float64, k int) slotQuery {
	return slotQuery{name, methodKNN, encodeKNNReq(q, k, core.KNNOptions{}), func() ([]int, []core.PeerScore) {
		res := w.sys.KNNQuery(c, q, k, core.KNNOptions{})
		return res.Items, res.Scores[:res.PeersContacted]
	}}
}

// askSlots asks sq at coordinator c through Node.handle, holds the answer to
// the oracle, and reports whether the answer memo resumed it and how many
// fetch RPCs the cluster served meanwhile, in all and at holder h.
func (w *dirWorld) askSlots(tag string, c, h int, sq slotQuery) (resumed bool, fetches, atH float64) {
	w.t.Helper()
	nd, holder := w.cl.Nodes[c], w.cl.Nodes[h]
	fetchesAt := func() float64 { c := holder.Counters(); return c["rpc.fetch_range"] + c["rpc.fetch_knn"] }
	resumes, served, servedH := nd.Counters()[ctrAnswerResume], w.fetchesServed(), fetchesAt()
	resp, err := nd.handle(context.Background(), transport.Request{Method: sq.method, Body: sq.body})
	if err != nil {
		w.t.Fatalf("%s: %s at %d: %v", tag, sq.name, c, err)
	}
	var items []int
	if sq.method == methodRange {
		res, err := decodeRangeResp(resp.Body)
		if err != nil {
			w.t.Fatal(err)
		}
		items = res.Items
	} else {
		res, err := transport.Decode(resp.Body, walkKNNResp)
		if err != nil {
			w.t.Fatal(err)
		}
		items = res.Items
	}
	if want, _ := sq.oracle(); !slices.Equal(items, want) {
		w.t.Errorf("%s: %s at %d diverged from the oracle: want %v, got %v", tag, sq.name, c, want, items)
	}
	return nd.Counters()[ctrAnswerResume] > resumes, w.fetchesServed() - served, fetchesAt() - servedH
}

// TestAnswerSlotsDropOnlyCoveredHolder pins what a notification from a
// contacted holder H costs the next asking. Coordinator C asks two requests of
// one kind that both contact H, one around x and one around far. A copy of x
// published at H changes H's answer to the first only: it notifies C once,
// which drops that answer's slot of H and with it its bytes. The second keeps
// every slot, so it is a hit with no fetch; the first resumes over its plan
// and sends exactly one fetch, to H. Then H's directory overflows, and under
// the lost mark its next publish tells C to drop everything of H: both resume
// and refetch their one answer from H each.
func TestAnswerSlotsDropOnlyCoveredHolder(t *testing.T) {
	for _, kind := range []string{"range", "knn"} {
		t.Run(kind, func(t *testing.T) {
			w := startDirWorld(t, 8, 5)
			const k = 3
			queries := func(c, h int) (near, far slotQuery, x []float64) {
				x, farQ, epsNear, epsFar := w.spheres(h)
				if kind == "range" {
					return rangeSlotQuery(w, "range near", c, x, epsNear), rangeSlotQuery(w, "range far", c, farQ, epsFar), x
				}
				return knnSlotQuery(w, "knn near", c, x, k), knnSlotQuery(w, "knn far", c, farQ, k), x
			}
			contacts := func(sq slotQuery, h int) bool {
				_, scores := sq.oracle()
				return slices.ContainsFunc(scores, func(ps core.PeerScore) bool { return ps.Peer == h })
			}
			// A coordinator and a holder both requests contact.
			c, h := -1, -1
			for hh := 0; hh < len(w.cl.Nodes) && c < 0; hh++ {
				for cc := 0; cc < len(w.cl.Nodes) && c < 0; cc++ {
					if near, far, _ := queries(cc, hh); cc != hh && contacts(near, hh) && contacts(far, hh) {
						c, h = cc, hh
					}
				}
			}
			if c < 0 {
				t.Fatal("no coordinator has two requests contacting one holder")
			}
			near, far, x := queries(c, h)
			for _, sq := range []slotQuery{near, far} {
				w.askSlots("cold", c, h, sq)
				if _, fetches, _ := w.askSlots("repeat", c, h, sq); fetches != 0 {
					t.Fatalf("the repeat of %s sent %v fetches: its answer was not memoized", sq.name, fetches)
				}
			}
			if kind == "knn" {
				// The far line stays unchanged by a copy of x: H's want-th
				// nearest item to far is nearer than x.
				key := append([]byte{'k'}, far.body...)
				plan := w.cl.Nodes[c].memo.entries[string(key)].plan.(core.KNNPlan)
				want := plan.Wants[slices.Index(plan.Peers, h)]
				_, farQ, _, _ := w.spheres(h)
				_, items := w.sys.PeerData(h)
				dists := make([]float64, len(items))
				for i, it := range items {
					dists[i] = vec.Dist(farQ, it)
				}
				sort.Float64s(dists)
				if want > len(dists) || dists[want-1] >= vec.Dist(farQ, x) {
					t.Fatalf("H's %d-th nearest item to far is not nearer than x: the publish would change both lines", want)
				}
			}

			inv := w.invalsAt(c)
			w.publish(h, append([]float64(nil), x...))
			if got := w.invalsAt(c) - inv; got != 1 {
				t.Fatalf("a copy of x published at H notified C %v times, want 1", got)
			}
			hits := w.cl.Nodes[c].Counters()[ctrAnswerHit]
			if resumed, fetches, _ := w.askSlots("after a covering publish", c, h, far); resumed || fetches != 0 || w.cl.Nodes[c].Counters()[ctrAnswerHit] != hits+1 {
				t.Errorf("%s, whose line at H the publish missed: resumed %v with %v fetch RPCs, want a hit with 0", far.name, resumed, fetches)
			}
			if resumed, fetches, atH := w.askSlots("after a covering publish", c, h, near); !resumed || fetches != 1 || atH != 1 {
				t.Errorf("%s, whose line at H the publish changed: resumed %v with %v fetch RPCs, %v to H; want a resume with exactly 1, to H", near.name, resumed, fetches, atH)
			}

			// Overflow H's directory with requests C subscribes to, then
			// publish far from everything: the lost mark drops every slot of H
			// at C.
			for i := 0; i <= fetchMemoCap; i++ {
				req := transport.Request{Method: methodFetchRange, Body: appendSubscriber(encodeFetchRangeReq(x, float64(i+1)*1e-9), c)}
				if _, err := w.cl.Nodes[h].handle(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
			if !w.cl.Nodes[h].dir.lost {
				t.Fatal("the overflow set no lost mark")
			}
			away := append([]float64(nil), x...)
			for d := range away {
				away[d] += 1e3
			}
			inv = w.invalsAt(c)
			w.publish(h, away)
			if got := w.invalsAt(c) - inv; got != 1 {
				t.Fatalf("a publish under the lost mark notified C %v times, want 1", got)
			}
			for _, sq := range []slotQuery{far, near} {
				if resumed, fetches, atH := w.askSlots("after a drop-all", c, h, sq); !resumed || fetches != 1 || atH != 1 {
					t.Errorf("%s after a drop-all from H: resumed %v with %v fetch RPCs, %v to H; want a resume with exactly 1, to H", sq.name, resumed, fetches, atH)
				}
			}
		})
	}
}

// TestAnswerMemoOwnSlotGuard stages the race of a coordinator's own scan with
// its own publish. A retrieval through the answer memo reads only the
// coordinator's store, with a copy of the fetch kind whose scan publishes an
// item inside the sphere once it has read the store, so the answer it returns
// predates the publish. The publish's invalidation finds the scan in flight
// (answerMemo.flight), so the own slot is not kept and the bytes are not
// stored: the next asking misses and holds the item, and the one after it is
// a hit.
//
// The sibling variants run a complete asking of the same key right after each
// publish, inside the stale retrieval, which lands a fresh own slot and bytes
// holding the item. The stale retrieval, landing next, finds a slot for every
// peer it read, but one it did not read itself: first with its own scan in
// flight, then — the entry now holding a slot and no bytes — reading the held
// slot the publish drops. Either way it must store no bytes.
func TestAnswerMemoOwnSlotGuard(t *testing.T) {
	for _, sibling := range []bool{false, true} {
		name := map[bool]string{false: "alone", true: "sibling"}[sibling]
		t.Run("range/"+name, func(t *testing.T) {
			w := startDirWorld(t, 4, 5)
			x, _, eps, _ := w.spheres(1)
			ownSlotGuard(w, rangeFetch, encodeRangeReq(x, eps, core.RangeOptions{}), x, math.Float64bits(eps), eps, sibling,
				func(ids core.RangeIDs, id int) bool { return slices.Contains(ids.Items(), id) })
		})
		t.Run("knn/"+name, func(t *testing.T) {
			w := startDirWorld(t, 4, 5)
			x, _, eps, _ := w.spheres(1)
			ownSlotGuard(w, knnFetch, encodeKNNReq(x, 3, core.KNNOptions{}), x, 3, eps, sibling,
				func(items []core.ItemDist, id int) bool {
					return slices.ContainsFunc(items, func(it core.ItemDist) bool { return it.ID == id })
				})
		})
	}
}

// ownSlotGuard runs TestAnswerMemoOwnSlotGuard at coordinator 1 for one fetch
// kind: body is the request, asked of the coordinator alone with tail, and
// has reports whether an answer holds an item. With sibling, each racing
// publish is followed by a complete asking of the same key.
func ownSlotGuard[T any](w *dirWorld, kind fetchKind[T], body []byte, x []float64, tail uint64, eps float64, sibling bool, has func(T, int) bool) {
	t := w.t
	const c = 1
	nd, ctx := w.cl.Nodes[c], context.Background()
	key := string(append([]byte{kind.tag}, body...))
	rng := rand.New(rand.NewSource(1))
	// ask asks body through the answer memo, over kind's scan, and runs mid
	// between the retrieval and the encode.
	var ask func(kind fetchKind[T], mid func()) T
	ask = func(kind fetchKind[T], mid func()) T {
		t.Helper()
		resp, err := nd.answer(ctx, kind.tag, body, func(ctx context.Context, _ any) ([]byte, any, error) {
			vals, errs := fetchAll(ctx, nd, kind, []int{c}, x, func(int) uint64 { return tail })
			if errs != nil && errs[0] != nil {
				return nil, nil, errs[0]
			}
			if mid != nil {
				mid()
			}
			return kind.encode(vals[0]), nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		val, err := kind.decode(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return val
	}
	// race publishes one item inside the sphere and, with sibling, asks again
	// at once; it returns the item's id.
	race := func() int {
		id := w.nextID
		w.publish(c, nudged(x, rng, eps/100))
		if sibling && !has(ask(kind, nil), id) {
			t.Error("the sibling asking after the publish lacks the item")
		}
		return id
	}
	entry := func() answerEntry {
		nd.ansMu.Lock()
		defer nd.ansMu.Unlock()
		return nd.memo.entries[key]
	}

	var ids []int
	racing := kind
	racing.local = func(n *Node, q []float64, tail uint64) T {
		val := kind.local(n, q, tail)
		ids = append(ids, race())
		return val
	}
	if has(ask(racing, nil), ids[0]) {
		t.Fatal("the racing scan's answer already holds the item: the publish did not land inside the retrieval")
	}
	e := entry()
	if _, kept := findSlot(e.slots, c, tail); kept != sibling || e.resp != nil {
		t.Fatalf("the own scan that raced its publish: slot kept %v (want %v, the sibling's), bytes kept %v", kept, sibling, e.resp != nil)
	}
	if sibling {
		// The entry holds the sibling's slot and no bytes: the next retrieval
		// reads that slot, and the publish in mid drops it.
		if val := ask(kind, func() { ids = append(ids, race()) }); len(ids) != 2 || has(val, ids[1]) {
			t.Fatal("the retrieval over the held slot was a hit, or its answer already holds the second item")
		}
		if e := entry(); e.resp != nil {
			t.Error("a retrieval whose held slot a publish dropped stored bytes beside the sibling's fresh slot")
		}
	}
	before := nd.Counters()
	got := ask(kind, nil)
	for _, id := range ids {
		if !has(got, id) {
			t.Errorf("the asking after the race lacks published item %d", id)
		}
	}
	if after := nd.Counters(); after[ctrAnswerMiss] != before[ctrAnswerMiss]+1 {
		t.Error("the asking after the race hit the answer memo")
	}
	before = nd.Counters()
	if !has(ask(kind, nil), ids[len(ids)-1]) || nd.Counters()[ctrAnswerHit] != before[ctrAnswerHit]+1 {
		t.Error("the quiet repeat was not a hit holding the items: the own slot was not kept")
	}
}
