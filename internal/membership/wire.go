package membership

import (
	"fmt"

	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Membership RPC methods, served by a Node alongside its query RPCs. Bodies
// are binary messages built with the transport codec; zone coordinates and
// record keys cross the wire bit-exactly (the determinism oracle depends on
// it).
const (
	MethodJoin     = "m.join"      // joiner → owner: split your zone, hand my half over
	MethodHandoff  = "m.handoff"   // leaver → taker: take these zones and records
	MethodPing     = "m.ping"      // prober → neighbor: liveness + state snapshot
	MethodTakeover = "m.takeover"  // taker → neighborhood: I claimed a crashed node's zone
	MethodZones    = "m.zones"     // any → neighbor: zone-set updates (join/leave/takeover notices)
	MethodStoreRec = "m.store_rec" // stream publisher → holder: apply one record delta (upsert/delete)
)

// Methods lists the membership RPCs (node daemons dispatch these to their
// Manager). Read-only.
var Methods = []string{MethodJoin, MethodHandoff, MethodPing, MethodTakeover, MethodZones, MethodStoreRec}

// DetailNotOwner is the wire detail token attached when a join request lands
// on a node that does not own the join point (stale routing during churn);
// the joiner re-routes and retries.
const DetailNotOwner = "membership/not-owner"

// ---- shared shapes ----

// BookEntry is one address-book entry shipped in a join grant.
type BookEntry struct {
	ID   int
	Addr string
}

// LevelTable is one level of a peer's self-reported state, carried in ping
// responses. Crash detectors elect takers from the crashed node's last table,
// so every detector that probed it reaches the same election.
type LevelTable struct {
	Zones     []route.Zone
	Neighbors []Neighbor
}

// ---- primitive codecs (exported: internal/node reuses them for its
// can_search views) ----

// EncodeZones appends a zone list.
func EncodeZones(e *transport.Encoder, zs []route.Zone) {
	e.U32(uint32(len(zs)))
	for _, z := range zs {
		e.Floats(z.Lo)
		e.Floats(z.Hi)
	}
}

// DecodeZones reads a zone list. Coordinate vectors land in the decoder's
// shared arena (one block allocation per message instead of two per zone);
// holders may retain them under the shared-read contract.
func DecodeZones(d *transport.Decoder) []route.Zone {
	n := d.Count(8) // two length-prefixed vectors minimum
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]route.Zone, n)
	for i := range out {
		out[i] = route.Zone{Lo: d.FloatsShared(), Hi: d.FloatsShared()}
	}
	return out
}

// EncodeNeighbors appends a neighbor table (ids, addresses, zones).
func EncodeNeighbors(e *transport.Encoder, ns []Neighbor) {
	e.U32(uint32(len(ns)))
	for _, nb := range ns {
		e.Int(nb.ID)
		e.String(nb.Addr)
		EncodeZones(e, nb.Zones)
	}
}

// DecodeNeighbors reads a neighbor table.
func DecodeNeighbors(d *transport.Decoder) []Neighbor {
	n := d.Count(16) // id + address prefix + zone count minimum
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]Neighbor, n)
	for i := range out {
		out[i] = Neighbor{ID: d.Int(), Addr: d.String(), Zones: DecodeZones(d)}
	}
	return out
}

// EncodeRecords appends a record list. Payloads must be core.ClusterRef —
// the only payload the serving runtime stores.
func EncodeRecords(e *transport.Encoder, recs []route.RecordView) error {
	e.U32(uint32(len(recs)))
	for _, rec := range recs {
		ref, ok := rec.Entry.Payload.(core.ClusterRef)
		if !ok {
			return fmt.Errorf("membership: record payload is %T, want core.ClusterRef", rec.Entry.Payload)
		}
		e.Int(rec.Seq)
		e.Floats(rec.Entry.Key)
		e.F64(rec.Entry.Radius)
		e.Int(ref.Peer)
		e.Int(ref.Level)
		e.Int(ref.Index)
		e.Floats(ref.Center)
		e.F64(ref.Radius)
		e.Int(ref.Items)
	}
	return nil
}

// DecodeRecords reads a record list. Key and centroid vectors decode into
// the decoder's shared arena (see DecodeZones): a view carrying hundreds of
// records costs a few block allocations, not two slices per record.
func DecodeRecords(d *transport.Decoder) []route.RecordView {
	n := d.Count(64) // seq + entry + cluster-ref scalars minimum
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]route.RecordView, n)
	for i := range out {
		out[i].Seq = d.Int()
		out[i].Entry = overlay.Entry{Key: d.FloatsShared(), Radius: d.F64()}
		out[i].Entry.Payload = core.ClusterRef{
			Peer:   d.Int(),
			Level:  d.Int(),
			Index:  d.Int(),
			Center: d.FloatsShared(),
			Radius: d.F64(),
			Items:  d.Int(),
		}
	}
	return out
}

// ---- m.join ----

// JoinReq asks the owner of Point at Level to split its zone with the joiner.
type JoinReq struct {
	Level  int
	Joiner int
	Addr   string
	Point  []float64
}

func encodeJoinReq(r JoinReq) []byte {
	var e transport.Encoder
	e.Int(r.Level)
	e.Int(r.Joiner)
	e.String(r.Addr)
	e.Floats(r.Point)
	return e.Bytes()
}

func decodeJoinReq(b []byte) (JoinReq, error) {
	d := transport.NewDecoder(b)
	r := JoinReq{Level: d.Int(), Joiner: d.Int(), Addr: d.String(), Point: d.Floats()}
	return r, d.Finish()
}

// JoinGrant is the owner's reply: the joiner's new zone(s), its initial
// neighbor table (addresses included), the records that move or replicate to
// it, the cluster size as the owner knows it, and the owner's address book.
type JoinGrant struct {
	Zones     []route.Zone
	Neighbors []Neighbor
	Owned     []route.RecordView
	Replicas  []route.RecordView
	Size      int
	Book      []BookEntry
}

func encodeJoinGrant(g JoinGrant) ([]byte, error) {
	var e transport.Encoder
	EncodeZones(&e, g.Zones)
	EncodeNeighbors(&e, g.Neighbors)
	if err := EncodeRecords(&e, g.Owned); err != nil {
		return nil, err
	}
	if err := EncodeRecords(&e, g.Replicas); err != nil {
		return nil, err
	}
	e.Int(g.Size)
	e.U32(uint32(len(g.Book)))
	for _, be := range g.Book {
		e.Int(be.ID)
		e.String(be.Addr)
	}
	return e.Bytes(), nil
}

func decodeJoinGrant(b []byte) (JoinGrant, error) {
	d := transport.NewDecoder(b)
	var g JoinGrant
	g.Zones = DecodeZones(d)
	g.Neighbors = DecodeNeighbors(d)
	g.Owned = DecodeRecords(d)
	g.Replicas = DecodeRecords(d)
	g.Size = d.Int()
	if n := d.Count(12); d.Err() == nil && n > 0 {
		g.Book = make([]BookEntry, n)
		for i := range g.Book {
			g.Book[i] = BookEntry{ID: d.Int(), Addr: d.String()}
		}
	}
	return g, d.Finish()
}

// ---- m.handoff ----

// ZoneAssign is one zone handed to a taker: merged into the taker's zone
// equal to MergeWith when Merge, annexed as an extra zone otherwise.
type ZoneAssign struct {
	Zone      route.Zone
	Merge     bool
	MergeWith route.Zone
}

// HandoffReq is a graceful leaver's transfer to one taker: the zones it was
// elected to take, the records that follow them, the leaver's neighbor table
// (for rewiring), and the final zone sets of every taker of the departure
// (so co-takers see each other's post-takeover zones).
type HandoffReq struct {
	Level     int
	Leaver    int
	Assigns   []ZoneAssign
	Owned     []route.RecordView
	Replicas  []route.RecordView
	Neighbors []Neighbor
	Takers    []Neighbor
}

func encodeHandoffReq(r HandoffReq) ([]byte, error) {
	var e transport.Encoder
	e.Int(r.Level)
	e.Int(r.Leaver)
	e.U32(uint32(len(r.Assigns)))
	for _, a := range r.Assigns {
		e.Floats(a.Zone.Lo)
		e.Floats(a.Zone.Hi)
		if a.Merge {
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.Floats(a.MergeWith.Lo)
		e.Floats(a.MergeWith.Hi)
	}
	if err := EncodeRecords(&e, r.Owned); err != nil {
		return nil, err
	}
	if err := EncodeRecords(&e, r.Replicas); err != nil {
		return nil, err
	}
	EncodeNeighbors(&e, r.Neighbors)
	EncodeNeighbors(&e, r.Takers)
	return e.Bytes(), nil
}

func decodeHandoffReq(b []byte) (HandoffReq, error) {
	d := transport.NewDecoder(b)
	var r HandoffReq
	r.Level = d.Int()
	r.Leaver = d.Int()
	if n := d.Count(17); d.Err() == nil && n > 0 {
		r.Assigns = make([]ZoneAssign, n)
		for i := range r.Assigns {
			r.Assigns[i].Zone = route.Zone{Lo: d.Floats(), Hi: d.Floats()}
			r.Assigns[i].Merge = d.U8() == 1
			r.Assigns[i].MergeWith = route.Zone{Lo: d.Floats(), Hi: d.Floats()}
		}
	}
	r.Owned = DecodeRecords(d)
	r.Replicas = DecodeRecords(d)
	r.Neighbors = DecodeNeighbors(d)
	r.Takers = DecodeNeighbors(d)
	return r, d.Finish()
}

// ---- m.ping ----

// PingReq identifies the prober so the probed node can learn its address.
type PingReq struct {
	From int
	Addr string
}

func encodePingReq(r PingReq) []byte {
	var e transport.Encoder
	e.Int(r.From)
	e.String(r.Addr)
	return e.Bytes()
}

func decodePingReq(b []byte) (PingReq, error) {
	d := transport.NewDecoder(b)
	r := PingReq{From: d.Int(), Addr: d.String()}
	return r, d.Finish()
}

func encodePingResp(tables []LevelTable) []byte {
	var e transport.Encoder
	e.U32(uint32(len(tables)))
	for _, t := range tables {
		EncodeZones(&e, t.Zones)
		EncodeNeighbors(&e, t.Neighbors)
	}
	return e.Bytes()
}

func decodePingResp(b []byte) ([]LevelTable, error) {
	d := transport.NewDecoder(b)
	var tables []LevelTable
	if n := d.Count(8); d.Err() == nil && n > 0 {
		tables = make([]LevelTable, n)
		for i := range tables {
			tables[i] = LevelTable{Zones: DecodeZones(d), Neighbors: DecodeNeighbors(d)}
		}
	}
	return tables, d.Finish()
}

// ---- m.takeover ----

// TakeoverMsg announces one claimed zone of a crashed node to the crashed
// node's and the taker's neighborhoods. TakerZones is the taker's complete
// zone set after the claim.
type TakeoverMsg struct {
	Level      int
	Crashed    int
	Zone       route.Zone
	Taker      int
	TakerAddr  string
	TakerZones []route.Zone
}

func encodeTakeoverMsg(msg TakeoverMsg) []byte {
	var e transport.Encoder
	e.Int(msg.Level)
	e.Int(msg.Crashed)
	e.Floats(msg.Zone.Lo)
	e.Floats(msg.Zone.Hi)
	e.Int(msg.Taker)
	e.String(msg.TakerAddr)
	EncodeZones(&e, msg.TakerZones)
	return e.Bytes()
}

func decodeTakeoverMsg(b []byte) (TakeoverMsg, error) {
	d := transport.NewDecoder(b)
	var msg TakeoverMsg
	msg.Level = d.Int()
	msg.Crashed = d.Int()
	msg.Zone = route.Zone{Lo: d.Floats(), Hi: d.Floats()}
	msg.Taker = d.Int()
	msg.TakerAddr = d.String()
	msg.TakerZones = DecodeZones(d)
	return msg, d.Finish()
}

// ---- m.store_rec ----

// StoreRecReq is one streamed record delta: upsert (replace in place, or
// store where absent — as an owned record when AsOwner, as a replica
// otherwise) or delete the record with Rec.Seq. Rec carries the full record
// value, so holders apply it without further context (see route.UpsertRecord).
type StoreRecReq struct {
	Level   int
	Del     bool
	AsOwner bool
	Rec     route.RecordView
}

// EncodeStoreRecReq builds the request body (exported: the stream publisher
// in internal/node issues these).
func EncodeStoreRecReq(r StoreRecReq) ([]byte, error) {
	var e transport.Encoder
	e.Int(r.Level)
	flags := uint8(0)
	if r.Del {
		flags |= 1
	}
	if r.AsOwner {
		flags |= 2
	}
	e.U8(flags)
	if err := EncodeRecords(&e, []route.RecordView{r.Rec}); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// DecodeStoreRecReq reads a store_rec request body.
func DecodeStoreRecReq(b []byte) (StoreRecReq, error) {
	d := transport.NewDecoder(b)
	var r StoreRecReq
	r.Level = d.Int()
	flags := d.U8()
	r.Del = flags&1 != 0
	r.AsOwner = flags&2 != 0
	recs := DecodeRecords(d)
	if err := d.Finish(); err != nil {
		return StoreRecReq{}, err
	}
	if len(recs) != 1 {
		return StoreRecReq{}, fmt.Errorf("membership: store_rec carries %d records, want 1", len(recs))
	}
	r.Rec = recs[0]
	return r, nil
}

// StoreRecResp is the holder's acknowledgement: its id, zones, and neighbor
// table, which is exactly what the publisher's flood machine needs to expand
// the record's sphere to the next holders.
type StoreRecResp struct {
	ID        int
	Zones     []route.Zone
	Neighbors []Neighbor
}

// EncodeStoreRecResp builds the response body.
func EncodeStoreRecResp(r StoreRecResp) []byte {
	var e transport.Encoder
	e.Int(r.ID)
	EncodeZones(&e, r.Zones)
	EncodeNeighbors(&e, r.Neighbors)
	return e.Bytes()
}

// DecodeStoreRecResp reads a store_rec response body.
func DecodeStoreRecResp(b []byte) (StoreRecResp, error) {
	d := transport.NewDecoder(b)
	r := StoreRecResp{ID: d.Int(), Zones: DecodeZones(d), Neighbors: DecodeNeighbors(d)}
	return r, d.Finish()
}

// ---- m.zones ----

// ZoneUpdate carries zone-set news to a neighbor: Removed lists peers that
// departed (gracefully or by crash); Updates carries current zone sets, as
// neighbor-table entries. The receiver removes departed entries and upserts
// each update into its table iff adjacent — the same message serves join
// notices, leave notices, and post-takeover rebroadcasts.
type ZoneUpdate struct {
	Level   int
	Removed []int
	Updates []Neighbor
}

func encodeZoneUpdate(u ZoneUpdate) []byte {
	var e transport.Encoder
	e.Int(u.Level)
	e.Ints(u.Removed)
	EncodeNeighbors(&e, u.Updates)
	return e.Bytes()
}

func decodeZoneUpdate(b []byte) (ZoneUpdate, error) {
	d := transport.NewDecoder(b)
	u := ZoneUpdate{Level: d.Int(), Removed: d.Ints(), Updates: DecodeNeighbors(d)}
	return u, d.Finish()
}
