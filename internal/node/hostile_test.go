package node

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// hostileTransport rewrites what every peer but the one at honest answers:
// each view in a can_search response, and each store_rec acknowledgement,
// goes through edit before the caller sees it. edits counts what edit
// changed, so a row that found nothing to spoil shows up as vacuous.
type hostileTransport struct {
	transport.Transport
	honest string
	edit   func(v *searchView) int
	edits  atomic.Int64
}

func (h *hostileTransport) Call(ctx context.Context, addr string, req transport.Request) (transport.Response, error) {
	resp, err := h.Transport.Call(ctx, addr, req)
	if err != nil || addr == h.honest || h.edit == nil {
		return resp, err
	}
	switch req.Method {
	case methodCanSearch:
		slots, err := splitSearchResp(resp.Body)
		if err != nil {
			return resp, err
		}
		answers := make([]searchAnswer, len(slots))
		for i, raw := range slots {
			if answers[i].Skipped = raw == nil; raw == nil {
				continue
			}
			if answers[i].View, err = transport.Decode(raw, walkSearchView); err != nil {
				return resp, err
			}
			h.edits.Add(int64(h.edit(&answers[i].View)))
		}
		resp.Body, err = encodeSearchResp(answers)
		return resp, err
	case membership.MethodStoreRec:
		ack, err := transport.Decode(resp.Body, membership.WalkStoreRecResp)
		if err != nil {
			return resp, err
		}
		v := searchView{ID: ack.ID, Zones: ack.Zones, Neighbors: ack.Neighbors}
		h.edits.Add(int64(h.edit(&v)))
		resp.Body = transport.Encode(&membership.StoreRecResp{ID: v.ID, Zones: v.Zones, Neighbors: v.Neighbors}, membership.WalkStoreRecResp)
	}
	return resp, err
}

// longer is x with one more coordinate, in a fresh array (decoded vectors
// share the message's arena).
func longer(x []float64) []float64 { return append(slices.Clip(x), 0.5) }

func longerZones(zs []route.Zone) int {
	for i := range zs {
		zs[i] = route.Zone{Lo: longer(zs[i].Lo), Hi: longer(zs[i].Hi)}
	}
	return len(zs)
}

func editRecords(v *searchView, f func(rec *route.RecordView)) int {
	for _, recs := range [][]route.RecordView{v.Owned, v.Replicas} {
		for i := range recs {
			f(&recs[i])
		}
	}
	return len(v.Owned) + len(v.Replicas)
}

// TestCoordinatorRefusesWrongDimensionViews serves a coordinator views from
// peers whose every answer has one vector of the wrong length — a zone, a
// neighbor's zone, a record key or a record center — on each of the three
// paths a remote view takes: a query's can_search probes, a joiner's route
// from its bootstrap, and the store_rec acknowledgements a streamed publish
// floods on. The route machines and the engine index both operands by the
// same coordinates, so such a view used to panic the coordinator (and, over
// TCP, the daemon). It must fail the request instead.
func TestCoordinatorRefusesWrongDimensionViews(t *testing.T) {
	zones := func(v *searchView) int { return longerZones(v.Zones) }
	neighborZones := func(v *searchView) int {
		n := 0
		for _, nb := range v.Neighbors {
			n += longerZones(nb.Zones)
		}
		return n
	}
	query := func(cl *Cluster, sys *core.System) error {
		_, items := sys.PeerData(0)
		_, err := cl.Nodes[0].RangeQuery(context.Background(), items[0], 1e6, core.RangeOptions{})
		return err
	}
	for _, tc := range []struct {
		name   string
		stream bool
		edit   func(v *searchView) int
		run    func(cl *Cluster, sys *core.System) error
	}{
		{"can_search/zone", false, zones, query},
		{"can_search/neighbor-zone", false, neighborZones, query},
		{"can_search/record-key", false, func(v *searchView) int {
			return editRecords(v, func(rec *route.RecordView) { rec.Entry.Key = longer(rec.Entry.Key) })
		}, query},
		{"can_search/record-center", false, func(v *searchView) int {
			return editRecords(v, func(rec *route.RecordView) {
				ref := rec.Entry.Payload.(core.ClusterRef)
				ref.Center = longer(ref.Center)
				rec.Entry.Payload = ref
			})
		}, query},
		{"join/bootstrap-zone", false, zones, func(cl *Cluster, sys *core.System) error {
			points := make([][]float64, cl.Nodes[0].mgr.NumLevels())
			for l := range points {
				points[l] = zoneCenter(cl.Nodes[1], l)
			}
			_, err := cl.Join(context.Background(), sys, cl.Addrs[1], points)
			return err
		}},
		{"store_rec/neighbor-zone", true, neighborZones, func(cl *Cluster, sys *core.System) error {
			_, items := sys.PeerData(0)
			return cl.Nodes[0].Publish(9000, items[0])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := experiments.BuildMarkovSystem(experiments.Params{Peers: 8, ItemsPerPeer: 12, Dim: 16, Levels: 3, ClustersPerPeer: 3, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			sys.PublishAll()
			tr := &hostileTransport{Transport: transport.NewChan()}
			t.Cleanup(func() { tr.Close() })
			cl, err := StartClusterTuned(sys, tr, nil, transport.Policy{Timeout: 30e9}, membership.Options{},
				Tuning{StreamPublish: tc.stream, serial: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Stop)
			tr.honest, tr.edit = cl.Addrs[0], tc.edit
			err = tc.run(cl, sys)
			if tr.edits.Load() == 0 {
				t.Fatal("no peer answer carried the field this row spoils")
			}
			if err == nil {
				t.Fatal("a view of the wrong dimension was accepted")
			}
			t.Logf("refused: %v", err)
		})
	}
}

// TestNodeRefusesNonFinite: a query with a NaN coordinate, or an item with a
// NaN or ±Inf one, has no oracle answer to match — the in-process System
// panics on it — so a node refuses it, through its methods and through the
// handler alike, before the engine or the store sees it. A k-nn request whose
// C is NaN or infinite has no answer the language defines (its shares go
// through a float-to-int conversion), and the engine refuses it.
func TestNodeRefusesNonFinite(t *testing.T) {
	w := startDirWorld(t, 6, 6)
	nd, ctx := w.cl.Nodes[0], context.Background()
	nan, inf := math.NaN(), math.Inf(1)
	at := func(i int, x float64) []float64 {
		v := make([]float64, nd.cfg.Dim)
		v[i] = x
		return v
	}
	handle := func(method string, body []byte) error {
		_, err := nd.handle(ctx, transport.Request{Method: method, Body: body})
		return err
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RangeQuery NaN coordinate", func() error { _, err := nd.RangeQuery(ctx, at(3, nan), 0.1, core.RangeOptions{}); return err }},
		{"KNNQuery NaN coordinate", func() error { _, err := nd.KNNQuery(ctx, at(0, nan), 3, core.KNNOptions{}); return err }},
		{"Publish NaN", func() error { return nd.Publish(9000, at(15, nan)) }},
		{"Publish +Inf", func() error { return nd.Publish(9001, at(1, inf)) }},
		{"Publish -Inf", func() error { return nd.Publish(9002, at(1, -inf)) }},
		{"range request NaN coordinate", func() error { return handle(methodRange, encodeRangeReq(at(2, nan), 0.1, core.RangeOptions{})) }},
		{"knn request NaN coordinate", func() error { return handle(methodKNN, encodeKNNReq(at(2, nan), 3, core.KNNOptions{})) }},
		{"knn request NaN C", func() error { return handle(methodKNN, encodeKNNReq(at(2, 0), 3, core.KNNOptions{C: nan})) }},
		{"knn request +Inf C", func() error { return handle(methodKNN, encodeKNNReq(at(2, 0), 3, core.KNNOptions{C: inf})) }},
		{"publish request +Inf", func() error { return handle(methodPublish, encodePublishReq(9003, at(4, inf))) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := nd.ItemCount()
			if err := tc.run(); err == nil {
				t.Error("accepted")
			}
			if nd.ItemCount() != items {
				t.Errorf("a refused call changed the store: %d items, want %d", nd.ItemCount(), items)
			}
		})
	}
	if _, err := nd.RangeQuery(ctx, at(3, inf), 0.1, core.RangeOptions{}); err != nil {
		t.Errorf("a query point at infinity was refused: %v", err)
	}
}
