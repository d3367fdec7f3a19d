package membership

import (
	"fmt"

	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Membership RPC methods, served by a Node alongside its query RPCs. Each body
// is stated once, as a walker (transport.Coder) that sizes, encodes and
// decodes it; zone coordinates and record keys cross the wire bit-exactly
// (the determinism oracle depends on it). Decoded vectors share the message's
// arena, so holders retain them under the shared-read contract: what writes
// to a zone (annex, route.SplitZone, route.UnionBox) copies it first.
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

// The least wire size of one element of each list: the count fence
// transport.List holds a decoded count to.
var (
	zoneSize     = transport.Size(new(route.Zone), walkZone)
	neighborSize = transport.Size(new(Neighbor), walkNeighbor)
	recordSize   = transport.Size(&route.RecordView{Entry: overlay.Entry{Payload: core.ClusterRef{}}}, walkRecord)
	bookSize     = transport.Size(new(BookEntry), walkBookEntry)
	assignSize   = transport.Size(new(ZoneAssign), walkZoneAssign)
	tableSize    = transport.Size(new(LevelTable), walkLevelTable)
)

// ---- shared shapes (exported walkers: internal/node's can_search views
// carry them) ----

// BookEntry is one address-book entry shipped in a join grant.
type BookEntry struct {
	ID   int
	Addr string
}

func walkBookEntry(c *transport.Coder, be *BookEntry) {
	c.Int(&be.ID)
	c.String(&be.Addr)
}

// LevelTable is one level of a peer's self-reported state, carried in ping
// responses. Crash detectors elect takers from the crashed node's last table,
// so every detector that probed it reaches the same election.
type LevelTable struct {
	Zones     []route.Zone
	Neighbors []Neighbor
}

func walkLevelTable(c *transport.Coder, t *LevelTable) {
	WalkZones(c, &t.Zones)
	WalkNeighbors(c, &t.Neighbors)
}

func walkZone(c *transport.Coder, z *route.Zone) {
	c.Floats(&z.Lo)
	c.Floats(&z.Hi)
}

// WalkZones walks a zone list.
func WalkZones(c *transport.Coder, zs *[]route.Zone) {
	l := transport.List(c, zs, zoneSize)
	for i := range l {
		walkZone(c, &l[i])
	}
}

func walkNeighbor(c *transport.Coder, nb *Neighbor) {
	c.Int(&nb.ID)
	c.String(&nb.Addr)
	WalkZones(c, &nb.Zones)
}

// WalkNeighbors walks a neighbor table (ids, addresses, zones).
func WalkNeighbors(c *transport.Coder, ns *[]Neighbor) {
	l := transport.List(c, ns, neighborSize)
	for i := range l {
		walkNeighbor(c, &l[i])
	}
}

// walkRecord walks one record. Its payload is a core.ClusterRef, the only one
// the serving runtime stores: records come from a core.System or from this
// decoder, so any other is a bug, and encoding it panics (Coder.Fail).
func walkRecord(c *transport.Coder, rec *route.RecordView) {
	ref, ok := rec.Entry.Payload.(core.ClusterRef)
	if !ok && !c.Decoding() {
		c.Fail(fmt.Errorf("membership: record payload is %T, want core.ClusterRef", rec.Entry.Payload))
	}
	c.Int(&rec.Seq)
	c.Floats(&rec.Entry.Key)
	c.F64(&rec.Entry.Radius)
	c.Int(&ref.Peer)
	c.Int(&ref.Level)
	c.Int(&ref.Index)
	c.Floats(&ref.Center)
	c.F64(&ref.Radius)
	c.Int(&ref.Items)
	if c.Decoding() {
		rec.Entry.Payload = ref
	}
}

// WalkRecords walks a record list.
func WalkRecords(c *transport.Coder, recs *[]route.RecordView) {
	l := transport.List(c, recs, recordSize)
	for i := range l {
		walkRecord(c, &l[i])
	}
}

// EncodeRecords appends a record list (WalkRecords) to e. It returns no error:
// a payload other than a core.ClusterRef panics (walkRecord).
func EncodeRecords(e *transport.Encoder, recs []route.RecordView) error {
	transport.Append(e, &recs, WalkRecords)
	return nil
}

// DecodeRecords reads a record list (WalkRecords) from d.
func DecodeRecords(d *transport.Decoder) []route.RecordView {
	return transport.Read(d, WalkRecords)
}

// ---- m.join ----

// JoinReq asks the owner of Point at Level to split its zone with the joiner.
type JoinReq struct {
	Level  int
	Joiner int
	Addr   string
	Point  []float64
}

func walkJoinReq(c *transport.Coder, r *JoinReq) {
	c.Int(&r.Level)
	c.Int(&r.Joiner)
	c.String(&r.Addr)
	c.Floats(&r.Point)
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

func walkJoinGrant(c *transport.Coder, g *JoinGrant) {
	WalkZones(c, &g.Zones)
	WalkNeighbors(c, &g.Neighbors)
	WalkRecords(c, &g.Owned)
	WalkRecords(c, &g.Replicas)
	c.Int(&g.Size)
	book := transport.List(c, &g.Book, bookSize)
	for i := range book {
		walkBookEntry(c, &book[i])
	}
}

// ---- m.handoff ----

// ZoneAssign is one zone handed to a taker: merged into the taker's zone
// equal to MergeWith when Merge, annexed as an extra zone otherwise.
type ZoneAssign struct {
	Zone      route.Zone
	Merge     bool
	MergeWith route.Zone
}

// walkZoneAssign carries Merge as a byte, 1 or 0; any other is refused.
func walkZoneAssign(c *transport.Coder, a *ZoneAssign) {
	walkZone(c, &a.Zone)
	var merge uint8
	if a.Merge {
		merge = 1
	}
	c.U8(&merge)
	if merge > 1 {
		c.Fail(fmt.Errorf("membership: handoff merge byte %d, want 0 or 1", merge))
	}
	if c.Decoding() {
		a.Merge = merge == 1
	}
	walkZone(c, &a.MergeWith)
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

func walkHandoffReq(c *transport.Coder, r *HandoffReq) {
	c.Int(&r.Level)
	c.Int(&r.Leaver)
	as := transport.List(c, &r.Assigns, assignSize)
	for i := range as {
		walkZoneAssign(c, &as[i])
	}
	WalkRecords(c, &r.Owned)
	WalkRecords(c, &r.Replicas)
	WalkNeighbors(c, &r.Neighbors)
	WalkNeighbors(c, &r.Takers)
}

// ---- m.ping ----

// PingReq identifies the prober so the probed node can learn its address.
type PingReq struct {
	From int
	Addr string
}

func walkPingReq(c *transport.Coder, r *PingReq) {
	c.Int(&r.From)
	c.String(&r.Addr)
}

// walkPingResp walks the probed node's self-report, one table per level.
func walkPingResp(c *transport.Coder, tables *[]LevelTable) {
	l := transport.List(c, tables, tableSize)
	for i := range l {
		walkLevelTable(c, &l[i])
	}
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

func walkTakeoverMsg(c *transport.Coder, msg *TakeoverMsg) {
	c.Int(&msg.Level)
	c.Int(&msg.Crashed)
	walkZone(c, &msg.Zone)
	c.Int(&msg.Taker)
	c.String(&msg.TakerAddr)
	WalkZones(c, &msg.TakerZones)
}

// ---- m.store_rec ----

// StoreRecReq is one streamed record delta: upsert (replace in place, or
// store where absent — as an owned record when AsOwner, as a replica
// otherwise) or delete the record with Rec.Seq. Rec carries the full record
// value, so holders apply it without further context (see route.UpsertRecord).
// AsOwner applies only where the holder's zones contain the record's key and
// writes nothing elsewhere: the publisher's routing hops toward the owner are
// store_recs as owner, so the hop that reaches the owner is also the write.
type StoreRecReq struct {
	Level   int
	Del     bool
	AsOwner bool
	Rec     route.RecordView
}

// The flag bits of a store_rec request; a request with any other is refused.
const (
	storeRecDel     = 1 << 0
	storeRecAsOwner = 1 << 1
)

// WalkStoreRecReq walks a store_rec request (exported: the stream publisher
// in internal/node issues these). Rec travels as a record list of exactly one.
func WalkStoreRecReq(c *transport.Coder, r *StoreRecReq) {
	c.Int(&r.Level)
	var flags uint8
	if r.Del {
		flags |= storeRecDel
	}
	if r.AsOwner {
		flags |= storeRecAsOwner
	}
	c.U8(&flags)
	if flags&^(storeRecDel|storeRecAsOwner) != 0 {
		c.Fail(fmt.Errorf("membership: store_rec has unknown flag bits %#x", flags))
	}
	recs := []route.RecordView{r.Rec}
	WalkRecords(c, &recs)
	if c.Decoding() {
		r.Del, r.AsOwner = flags&storeRecDel != 0, flags&storeRecAsOwner != 0
		if len(recs) != 1 {
			c.Fail(fmt.Errorf("membership: store_rec carries %d records, want 1", len(recs)))
			return
		}
		r.Rec = recs[0]
	}
}

// StoreRecResp is the holder's acknowledgement: its id, zones, and neighbor
// table as they stood when the delta was applied (or, as owner at a
// non-owner, not applied), which is exactly what the publisher's route and
// flood machines need to take the next hop or expand the record's sphere to
// the next holders.
type StoreRecResp struct {
	ID        int
	Zones     []route.Zone
	Neighbors []Neighbor
}

// WalkStoreRecResp walks a store_rec acknowledgement.
func WalkStoreRecResp(c *transport.Coder, r *StoreRecResp) {
	c.Int(&r.ID)
	WalkZones(c, &r.Zones)
	WalkNeighbors(c, &r.Neighbors)
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

func walkZoneUpdate(c *transport.Coder, u *ZoneUpdate) {
	c.Int(&u.Level)
	c.Ints(&u.Removed)
	WalkNeighbors(c, &u.Updates)
}
