package node

import (
	"context"
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
// which drops the bytes of both answers, since both contacted H, so both
// resume over their plans. The second sends no fetch at all; the first sends
// exactly one, to H. Then H's directory overflows, and under the lost mark its
// next publish tells C to drop everything of H: both resume and refetch their
// one answer from H each.
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
				plan := w.cl.Nodes[c].answers[string(key)].plan.(core.KNNPlan)
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
			if resumed, fetches, _ := w.askSlots("after a covering publish", c, h, far); !resumed || fetches != 0 {
				t.Errorf("%s, whose line at H the publish missed: resumed %v with %v fetch RPCs, want a resume with 0", far.name, resumed, fetches)
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
			if !w.cl.Nodes[h].fetchLost {
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
