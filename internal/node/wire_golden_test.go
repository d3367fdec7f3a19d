package node

import (
	"encoding/hex"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
)

// TestWireGoldenBytes pins the body of every node RPC, both directions, to
// bytes captured before the codecs were rewritten as walkers: a peer running
// either version must read the other. The membership twin
// (internal/membership) pins the bodies of that layer, including the record
// and neighbor lists a can_search view reuses.
func TestWireGoldenBytes(t *testing.T) {
	q := []float64{0.25, -1.5}
	scores := []core.PeerScore{{Peer: 2, Score: 0.5}, {Peer: 5, Score: 1.25}}
	view := searchView{
		ID:    4,
		Zones: []route.Zone{{Lo: []float64{0, 0.5}, Hi: []float64{0.5, 1}}},
		Neighbors: []membership.Neighbor{
			{ID: 3, Addr: "n3", Zones: []route.Zone{{Lo: []float64{0.5, 0.5}, Hi: []float64{1, 1}}}},
		},
		Owned: []route.RecordView{{Seq: 6, Entry: overlay.Entry{
			Key: []float64{0.25, 0.75}, Radius: 0.125,
			Payload: core.ClusterRef{Peer: 4, Level: 1, Index: 2, Center: []float64{0.25, 0.75}, Radius: 0.125, Items: 9},
		}}},
	}
	searchResp, err := encodeSearchResp([]searchAnswer{{View: view}, {Skipped: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"range request", goldenRangeReq, encodeRangeReq(q, 0.125, core.RangeOptions{MaxPeers: 3})},
		// Ids ascending with one wide gap (a multi-byte varint) and one step down.
		{"range response", goldenRangeResp, encodeRangeResp(core.RangeResult{
			Items: []int{3, 4, 9, 300, 299}, Scores: scores, PeersContacted: 2, OverlayHops: 7,
		})},
		{"knn request", goldenKNNReq, encodeKNNReq(q, 4, core.KNNOptions{MaxPeers: 2, C: 1.5})},
		{"knn response", goldenKNNResp, encodeKNNResp(core.KNNResult{
			Items: []int{9, -3}, Scores: scores, EpsPerLevel: []float64{0.1, 0.2}, PeersContacted: 1, OverlayHops: 4,
		})},
		{"publish request", goldenPublishReq, encodePublishReq(7001, q)},
		{"can_search request", goldenSearchReq, encodeSearchReq([]searchReq{
			{Level: 0, Key: []float64{0.5}, Radius: 0.0625},
			{Level: 1, Key: q, Radius: 0.25, Optional: true},
		})},
		{"can_search response, second slot skipped", goldenSearchResp, searchResp},
		{"inval_fetch", goldenInvalReq, encodeInvalReq(5, [][]float64{q, {1}})},
		{"inval_fetch, empty (drop all)", goldenInvalDropAll, encodeInvalReq(5, nil)},
		{"fetch_range request", goldenFetchRangeReq, encodeFetchRangeReq(q, 0.125)},
		{"fetch_range request, caching", goldenFetchRangeReqCaching, appendSubscriber(encodeFetchRangeReq(q, 0.125), 6)},
		{"fetch_range response", goldenFetchRangeResp, encodeFetchRangeResp([]int{1, 2, 40, 41})},
		{"fetch_knn request", goldenFetchKNNReq, encodeFetchKNNReq(q, 3)},
		{"fetch_knn request, caching", goldenFetchKNNReqCaching, appendSubscriber(encodeFetchKNNReq(q, 3), 6)},
		{"fetch_knn response", goldenFetchKNNResp, encodeFetchKNNResp([]core.ItemDist{{ID: 8, Dist2: 0.5}, {ID: 2, Dist2: 0.75}})},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s body changed on the wire:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

const (
	goldenRangeReq             = "000000023fd0000000000000bff80000000000003fc00000000000000000000000000003"
	goldenRangeResp            = "0000000506020ac604010000000200000000000000023fe000000000000000000000000000053ff400000000000000000000000000020000000000000007"
	goldenKNNReq               = "000000023fd0000000000000bff8000000000000000000000000000400000000000000023ff8000000000000"
	goldenKNNResp              = "000000020000000000000009fffffffffffffffd0000000200000000000000023fe000000000000000000000000000053ff4000000000000000000023fb999999999999a3fc999999999999a00000000000000010000000000000004"
	goldenPublishReq           = "0000000000001b59000000023fd0000000000000bff8000000000000"
	goldenSearchReq            = "000000020000000000000000000000013fe00000000000003fb0000000000000000000000000000001000000023fd0000000000000bff80000000000003fd000000000000002"
	goldenSearchResp           = "00000002000000da0000000000000004000000010000000200000000000000003fe0000000000000000000023fe00000000000003ff0000000000000000000010000000000000003000000026e3300000001000000023fe00000000000003fe0000000000000000000023ff00000000000003ff0000000000000000000010000000000000006000000023fd00000000000003fe80000000000003fc0000000000000000000000000000400000000000000010000000000000002000000023fd00000000000003fe80000000000003fc000000000000000000000000000090000000000000000"
	goldenInvalReq             = "000000000000000500000002000000023fd0000000000000bff8000000000000000000013ff0000000000000"
	goldenInvalDropAll         = "000000000000000500000000"
	goldenFetchRangeReq        = "000000023fd0000000000000bff80000000000003fc0000000000000"
	goldenFetchRangeReqCaching = "000000023fd0000000000000bff80000000000003fc00000000000000000000000000006"
	goldenFetchRangeResp       = "0000000402024c02"
	goldenFetchKNNReq          = "000000023fd0000000000000bff80000000000000000000000000003"
	goldenFetchKNNReqCaching   = "000000023fd0000000000000bff800000000000000000000000000030000000000000006"
	goldenFetchKNNResp         = "0000000200000000000000083fe000000000000000000000000000023fe8000000000000"
)
