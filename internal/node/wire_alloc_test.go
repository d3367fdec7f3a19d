package node

import (
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Allocation fences for the serving path's hot wire decoders. A can_search
// view carrying R records used to cost >= 3 allocations per record (key
// vector, centroid vector, payload boxing); with the decoder arena only the
// interface boxing of each ClusterRef remains. These fences keep that true —
// a decode regression shows up as a hard failure, not a silent heap bloat at
// 100k items/node.

// benchView builds a full searchView with records records across owned and
// replica stores — the dominant response shape under query load.
func benchView(records int) searchView {
	v := searchView{ID: 7}
	v.Zones = []route.Zone{{Lo: []float64{0, 0}, Hi: []float64{0.5, 1}}}
	v.Neighbors = []membership.Neighbor{
		{ID: 3, Addr: "peer-3", Zones: []route.Zone{{Lo: []float64{0.5, 0}, Hi: []float64{1, 1}}}},
	}
	for i := 0; i < records; i++ {
		rec := route.RecordView{
			Seq: i,
			Entry: overlay.Entry{
				Key: []float64{float64(i) / float64(records), 0.25}, Radius: 0.1,
				Payload: core.ClusterRef{
					Peer: i % 8, Level: 1, Index: i % 4,
					Center: []float64{1, 2, 3, 4, 5, 6, 7, 8},
					Radius: 0.5, Items: 10,
				},
			},
		}
		if i%2 == 0 {
			v.Owned = append(v.Owned, rec)
		} else {
			v.Replicas = append(v.Replicas, rec)
		}
	}
	return v
}

// TestSearchRespDecodeAllocFence bounds both steps of reading a can_search
// response of three views, one of them skipped: cutting it into its encoded
// views costs the slice of slices and nothing that grows with the views, and
// decoding one view — what a level's lookup does when it asks, the others
// staying bytes — costs its records' boxing plus arena blocks.
func TestSearchRespDecodeAllocFence(t *testing.T) {
	const records = 256
	body, err := encodeSearchResp([]searchAnswer{{View: benchView(records)}, {Skipped: true}, {View: benchView(records / 2)}})
	if err != nil {
		t.Fatal(err)
	}
	var slots [][]byte
	allocs := testing.AllocsPerRun(50, func() {
		if slots, err = splitSearchResp(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("splitSearchResp of 3 views, %d bytes: %.0f allocs", len(body), allocs)
	if allocs > 2 {
		t.Errorf("splitSearchResp took %.0f allocs before any view was decoded, want <= 2", allocs)
	}
	if len(slots) != 3 || slots[0] == nil || slots[1] != nil || slots[2] == nil {
		t.Fatalf("split into %d slots (nil: %v %v %v), want view, skipped, view",
			len(slots), slots[0] == nil, slots[1] == nil, slots[2] == nil)
	}
	allocs = testing.AllocsPerRun(50, func() {
		v, err := transport.Decode(slots[0], walkSearchView)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Owned)+len(v.Replicas) != records {
			t.Fatalf("decoded %d records, want %d", len(v.Owned)+len(v.Replicas), records)
		}
	})
	t.Logf("view decode with %d records: %.0f allocs", records, allocs)
	// One boxing per record is structural (Entry.Payload is an interface);
	// everything else — vectors, zone coordinates — must come from the arena.
	// The old per-vector decode sat at >= 3x records.
	if allocs > records+32 {
		t.Errorf("view decode with %d records took %.0f allocs, want <= %d (boxing + arena blocks)",
			records, allocs, records+32)
	}
}

// TestFetchRespDecodeAllocFence bounds both ends of a large fetch_range
// answer — 10^5 ids ascending two or three apart, what an indexed holder
// returns to a wide query: the delta coding must keep it under 2 bytes per
// id, allocated once, and the decode must stay at the decoder plus the id
// array.
func TestFetchRespDecodeAllocFence(t *testing.T) {
	ids := make([]int, 100000)
	for i := range ids {
		ids[i] = i*5/2 + 7
	}
	body := encodeFetchRangeResp(ids)
	if perID := float64(cap(body)) / float64(len(ids)); perID > 2 {
		t.Errorf("encodeFetchRangeResp holds %.2f B/id (%d bytes encoded), want <= 2", perID, len(body))
	}
	if allocs := testing.AllocsPerRun(10, func() { encodeFetchRangeResp(ids) }); allocs > 1 {
		t.Errorf("encodeFetchRangeResp took %.0f allocs, want 1", allocs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		got, err := transport.Decode(body, walkFetchRangeResp)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ids) || got[len(got)-1] != ids[len(ids)-1] {
			t.Fatalf("decoded %d ids, want %d", len(got), len(ids))
		}
	})
	t.Logf("fetch_range answer of %d ids: %d bytes, decode %.0f allocs", len(ids), len(body), allocs)
	if allocs > 4 {
		t.Errorf("fetch_range answer decode took %.0f allocs, want <= 4 (decoder + id array)", allocs)
	}
}

// TestStoreRecRoundTripAllocFence bounds the publish-delta decode: the per-
// announce store_rec body carries one record, so the whole decode must stay a
// small constant.
func TestStoreRecRoundTripAllocFence(t *testing.T) {
	v := benchView(1)
	body := transport.Encode(&membership.StoreRecReq{Level: 1, AsOwner: true, Rec: v.Owned[0]}, membership.WalkStoreRecReq)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := transport.Decode(body, membership.WalkStoreRecReq); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("store_rec request decode: %.0f allocs", allocs)
	if allocs > 8 {
		t.Errorf("store_rec request decode took %.0f allocs, want <= 8", allocs)
	}
}
