package membership

import (
	"encoding/hex"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
)

// TestWireGoldenBytes pins the encodings of the two messages that carry
// peers' zone sets — a ZoneUpdate's Updates and a HandoffReq's Takers — to
// bytes captured when each had its own node-and-zones codec. Both now encode
// as neighbor tables, and a peer running either version must read the other.
func TestWireGoldenBytes(t *testing.T) {
	z := func(lo0, lo1, hi0, hi1 float64) route.Zone {
		return route.Zone{Lo: []float64{lo0, lo1}, Hi: []float64{hi0, hi1}}
	}
	rec := route.RecordView{Seq: 9, Entry: overlay.Entry{
		Key: []float64{0.3, 0.6}, Radius: 0.125,
		Payload: core.ClusterRef{Peer: 2, Level: 0, Index: 4, Center: []float64{0.3, 0.6}, Radius: 0.125, Items: 11},
	}}
	upd := encodeZoneUpdate(ZoneUpdate{Level: 1, Removed: []int{5}, Updates: []Neighbor{
		{ID: 2, Addr: "n2", Zones: []route.Zone{z(0, 0, 0.5, 0.5)}},
		{ID: 7, Addr: "n7", Zones: []route.Zone{z(0.5, 0, 1, 0.5), z(0.5, 0.5, 0.75, 1)}},
	}})
	ho, err := encodeHandoffReq(HandoffReq{
		Level: 0, Leaver: 5,
		Assigns: []ZoneAssign{
			{Zone: z(0.5, 0.5, 1, 1), Merge: true, MergeWith: z(0.5, 0, 1, 0.5)},
			{Zone: z(0, 0.5, 0.5, 1)},
		},
		Owned:     []route.RecordView{rec},
		Replicas:  []route.RecordView{rec},
		Neighbors: []Neighbor{{ID: 2, Addr: "n2", Zones: []route.Zone{z(0, 0, 0.5, 0.5)}}, {ID: 7, Addr: "n7", Zones: []route.Zone{z(0.5, 0, 1, 0.5)}}},
		Takers:    []Neighbor{{ID: 7, Addr: "n7", Zones: []route.Zone{z(0.5, 0, 1, 1)}}, {ID: 9, Addr: "n9", Zones: []route.Zone{z(0, 0.5, 0.5, 1)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"m.zones", goldenZoneUpdate, upd},
		{"m.handoff", goldenHandoffReq, ho},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s body changed on the wire:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

const (
	goldenZoneUpdate = "0000000000000001000000010000000000000005000000020000000000000002000000026e32000000010000000200000000000000000000000000000000000000023fe00000000000003fe00000000000000000000000000007000000026e3700000002000000023fe00000000000000000000000000000000000023ff00000000000003fe0000000000000000000023fe00000000000003fe0000000000000000000023fe80000000000003ff0000000000000"

	goldenHandoffReq = "0000000000000000000000000000000500000002000000023fe00000000000003fe0000000000000000000023ff00000000000003ff000000000000001000000023fe00000000000000000000000000000000000023ff00000000000003fe00000000000000000000200000000000000003fe0000000000000000000023fe00000000000003ff0000000000000000000000000000000000000010000000000000009000000023fd33333333333333fe33333333333333fc0000000000000000000000000000200000000000000000000000000000004000000023fd33333333333333fe33333333333333fc0000000000000000000000000000b000000010000000000000009000000023fd33333333333333fe33333333333333fc0000000000000000000000000000200000000000000000000000000000004000000023fd33333333333333fe33333333333333fc0000000000000000000000000000b000000020000000000000002000000026e32000000010000000200000000000000000000000000000000000000023fe00000000000003fe00000000000000000000000000007000000026e3700000001000000023fe00000000000000000000000000000000000023ff00000000000003fe0000000000000000000020000000000000007000000026e3700000001000000023fe00000000000000000000000000000000000023ff00000000000003ff00000000000000000000000000009000000026e39000000010000000200000000000000003fe0000000000000000000023fe00000000000003ff0000000000000"
)
