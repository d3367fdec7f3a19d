package node_test

import (
	"context"
	"reflect"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
)

// TestRangeMultisetOverTheWire holds the coordinator's id union to the
// multiset contract: a range answer keeps every copy of an id that more than
// one row holds, as core.System's does. The stores are indexed and large
// enough that an all-covering query makes each holder answer with a bitmap
// chunk. Then one corpus id is published again on a second node (inside two
// holders' bitmaps) and one new id on two nodes (in two holders' lists), in
// either order, so that each kind of overlap is once the only one in the
// union; then one new id twice on one node (a holder answer that does not
// strictly ascend). After each step every query is asked twice over the
// wire, caching off and on, so the second asking of a cached coordinator is
// served from its answer memo.
func TestRangeMultisetOverTheWire(t *testing.T) {
	params := experiments.Params{Peers: 4, ItemsPerPeer: 4600, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: 5}
	for _, c := range []struct {
		tuning     node.Tuning
		listsFirst bool
	}{{node.Tuning{}, false}, {node.Tuning{}, true}, {node.Tuning{CacheViews: true}, false}, {node.Tuning{CacheViews: true}, true}} {
		tuning := c.tuning
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
		client, ctx := node.NewClient(tr, transport.Policy{Timeout: 30e9}), context.Background()

		ids, items := sys.PeerData(0)
		shared, item := ids[7], items[7]
		const listed, twice = 1 << 20, 1 << 24
		publish := func(peer, id int) {
			sys.PostInsert(peer, id, item)
			if err := client.Publish(ctx, cl.Addrs[peer], id, item); err != nil {
				t.Fatalf("%+v: publish %d on peer %d: %v", tuning, id, peer, err)
			}
		}
		check := func(dups ...int) {
			for from := range params.Peers {
				for _, eps := range []float64{0.05, 1e9} {
					want := sys.RangeQuery(from, item, eps, core.RangeOptions{})
					for asking := range 2 {
						got, err := client.Range(ctx, cl.Addrs[from], item, eps, core.RangeOptions{})
						if err != nil {
							t.Fatalf("%+v: range from %d eps %v: %v", tuning, from, eps, err)
						}
						if !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
							t.Errorf("%+v: range from %d eps %v, asking %d: %d items served, the oracle has %d",
								tuning, from, eps, asking, len(got.Items), len(want.Items))
						}
						for _, id := range dups {
							if n := count(got.Items, id); eps == 1e9 && n != 2 {
								t.Errorf("%+v: range from %d, asking %d: id %d served %d times, want 2", tuning, from, asking, id, n)
							}
						}
					}
				}
			}
		}
		// Every holder answer ascends, and the union meets the repeat as an
		// overlap: of two bitmaps, of two lists, then of both.
		if c.listsFirst {
			publish(1, listed)
			publish(3, listed)
			check(listed)
			publish(1, shared)
		} else {
			publish(1, shared)
			check(shared)
			publish(1, listed)
			publish(3, listed)
		}
		check(shared, listed)
		// One holder answer repeats an id and is sorted in with the rest.
		publish(2, twice)
		publish(2, twice)
		check(shared, listed, twice)
		cl.Stop()
		tr.Close()
	}
}

func count(ids []int, id int) int {
	n := 0
	for _, x := range ids {
		if x == id {
			n++
		}
	}
	return n
}
