package membership

import (
	"bytes"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
	"hyperm/internal/transport/wiretest"
)

// wireMessages lists every membership body with its walker, the call that
// encodes it, and seed values: TestWireConforms checks each, and
// FuzzMembershipWire picks from them by index.
func wireMessages() []wiretest.Message {
	z := func(lo0, lo1, hi0, hi1 float64) route.Zone {
		return route.Zone{Lo: []float64{lo0, lo1}, Hi: []float64{hi0, hi1}}
	}
	rec := route.RecordView{Seq: 9, Entry: overlay.Entry{
		Key: []float64{0.3, 0.6}, Radius: 0.125,
		Payload: core.ClusterRef{Peer: 2, Level: 0, Index: 4, Center: []float64{0.3, 0.6, 0.1}, Radius: 0.125, Items: 11},
	}}
	nbs := []Neighbor{
		{ID: 2, Addr: "n2", Zones: []route.Zone{z(0, 0, 0.5, 0.5)}},
		{ID: 7, Zones: []route.Zone{z(0.5, 0, 1, 0.5), z(0.5, 0.5, 0.75, 1)}},
	}
	return []wiretest.Message{
		wiretest.Of("m.join request", walkJoinReq,
			func(r *JoinReq) []byte { return transport.Encode(r, walkJoinReq) },
			JoinReq{}, JoinReq{Level: 1, Joiner: 6, Addr: "n6", Point: []float64{0.75, 0.25}}),
		wiretest.Of("m.join grant", walkJoinGrant,
			func(g *JoinGrant) []byte { return transport.Encode(g, walkJoinGrant) },
			JoinGrant{}, JoinGrant{
				Zones: []route.Zone{z(0.5, 0.5, 1, 1)}, Neighbors: nbs, Owned: []route.RecordView{rec},
				Replicas: []route.RecordView{rec, rec}, Size: 6, Book: []BookEntry{{ID: 2, Addr: "n2"}, {ID: 5}},
			}),
		wiretest.Of("m.handoff", walkHandoffReq,
			func(r *HandoffReq) []byte { return transport.Encode(r, walkHandoffReq) },
			HandoffReq{}, HandoffReq{
				Level: 2, Leaver: 5,
				Assigns: []ZoneAssign{
					{Zone: z(0.5, 0.5, 1, 1), Merge: true, MergeWith: z(0.5, 0, 1, 0.5)},
					{Zone: z(0, 0.5, 0.5, 1)},
				},
				Owned: []route.RecordView{rec}, Neighbors: nbs, Takers: nbs[:1],
			}),
		wiretest.Of("m.ping request", walkPingReq,
			func(r *PingReq) []byte { return transport.Encode(r, walkPingReq) },
			PingReq{}, PingReq{From: 3, Addr: "n3"}),
		wiretest.Of("m.ping response", walkPingResp,
			func(ts *[]LevelTable) []byte { return transport.Encode(ts, walkPingResp) },
			nil, []LevelTable{{Zones: []route.Zone{z(0, 0.5, 0.5, 1)}, Neighbors: nbs}, {}}),
		wiretest.Of("m.takeover", walkTakeoverMsg,
			func(msg *TakeoverMsg) []byte { return transport.Encode(msg, walkTakeoverMsg) },
			TakeoverMsg{}, TakeoverMsg{
				Level: 1, Crashed: 5, Zone: z(0.5, 0.5, 1, 1), Taker: 7, TakerAddr: "n7",
				TakerZones: []route.Zone{z(0.5, 0, 1, 0.5), z(0.5, 0.5, 1, 1)},
			}),
		wiretest.Of("m.store_rec request", WalkStoreRecReq,
			func(r *StoreRecReq) []byte { return transport.Encode(r, WalkStoreRecReq) },
			StoreRecReq{Rec: rec}, StoreRecReq{Level: 2, Del: true, AsOwner: true, Rec: rec}),
		wiretest.Of("m.store_rec response", WalkStoreRecResp,
			func(r *StoreRecResp) []byte { return transport.Encode(r, WalkStoreRecResp) },
			StoreRecResp{}, StoreRecResp{ID: 7, Zones: []route.Zone{z(0.5, 0, 1, 0.5)}, Neighbors: nbs}),
		wiretest.Of("m.zones", walkZoneUpdate,
			func(u *ZoneUpdate) []byte { return transport.Encode(u, walkZoneUpdate) },
			ZoneUpdate{}, ZoneUpdate{Level: 1, Removed: []int{5, -1}, Updates: nbs}),
	}
}

func TestWireConforms(t *testing.T) { wiretest.Check(t, wireMessages()) }

// TestWireListFences pins the count fence of every membership list, worked
// out from its element walker, to the wire size of the list's least element.
func TestWireListFences(t *testing.T) {
	for name, c := range map[string]struct{ got, want int }{
		"zone":        {zoneSize, 8},
		"neighbor":    {neighborSize, 16},
		"record":      {recordSize, 64},
		"book entry":  {bookSize, 12},
		"zone assign": {assignSize, 17},
		"level table": {tableSize, 8},
	} {
		if c.got != c.want {
			t.Errorf("%s: least wire size %d, want %d", name, c.got, c.want)
		}
	}
}

// TestWireRefusesNonCanonical covers the flag and merge byte values no encoder
// writes: each is refused, so every body a decoder accepts re-encodes to
// itself.
func TestWireRefusesNonCanonical(t *testing.T) {
	withByte := func(b []byte, at int, v byte) []byte {
		out := bytes.Clone(b)
		out[at] = v
		return out
	}
	// The flag byte follows the level: bits 0 (delete) and 1 (as owner) only.
	storeRec := storeRecSeed(1, false, false, nil, nil)
	for _, flags := range []byte{0, 1, 2, 3, 1 << 2, 1<<7 | 1} {
		_, err := transport.Decode(withByte(storeRec, 8, flags), WalkStoreRecReq)
		if (err == nil) != (flags <= 3) {
			t.Errorf("store_rec flags %#x: decode error %v", flags, err)
		}
	}
	// The merge byte follows level, leaver, the assign count and two empty
	// vectors.
	handoff := transport.Encode(&HandoffReq{Assigns: []ZoneAssign{{}}}, walkHandoffReq)
	for _, merge := range []byte{0, 1, 2, 255} {
		_, err := transport.Decode(withByte(handoff, 28, merge), walkHandoffReq)
		if (err == nil) != (merge <= 1) {
			t.Errorf("handoff merge byte %d: decode error %v", merge, err)
		}
	}
}

// TestWireRecordPayloadIsClusterRef pins what a record with another payload
// does to an encoder: it panics, since only a bug puts one in a node's state.
func TestWireRecordPayloadIsClusterRef(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a record with a string payload encoded")
		}
	}()
	recs := []route.RecordView{{Entry: overlay.Entry{Payload: "not a cluster ref"}}}
	transport.Encode(&recs, WalkRecords)
}

// storeRecSeed builds one valid store_rec request body.
func storeRecSeed(seq int, del, asOwner bool, key, center []float64) []byte {
	return transport.Encode(&StoreRecReq{
		Level: 1, Del: del, AsOwner: asOwner,
		Rec: route.RecordView{
			Seq: seq,
			Entry: overlay.Entry{
				Key: key, Radius: 0.25,
				Payload: core.ClusterRef{Peer: 3, Level: 1, Index: 2, Center: center, Radius: 0.5, Items: 7},
			},
		},
	}, WalkStoreRecReq)
}

// FuzzMembershipWire holds every membership body to the codec's contract
// (wiretest.Conforms): the first input byte picks the message, the rest is
// its body. The store_rec request — the delta streaming publish trusts for
// byte-identity with the simulator oracle — is also seeded with deltas of
// several shapes and with an empty body.
func FuzzMembershipWire(f *testing.F) {
	msgs := wireMessages()
	storeRec := byte(6)
	if msgs[storeRec].Name != "m.store_rec request" {
		f.Fatalf("message %d is %s", storeRec, msgs[storeRec].Name)
	}
	f.Add(append([]byte{storeRec}, storeRecSeed(42, false, true, []float64{0.1, 0.9}, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{storeRec}, storeRecSeed(1<<40+5, true, false, []float64{0.5}, nil)...))
	f.Add(append([]byte{storeRec}, storeRecSeed(0, false, false, nil, []float64{-0.25})...))
	f.Add([]byte{storeRec})
	for _, seed := range wiretest.Seeds(msgs) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) { wiretest.Fuzz(t, msgs, raw) })
}
