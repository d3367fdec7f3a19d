package node

import (
	"encoding/binary"
	"fmt"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/transport"
)

// RPC methods served by a Node. Each body is stated once, as a walker
// (transport.Coder) that sizes, encodes and decodes it; float64 values cross
// the wire bit-exactly, which the determinism oracle depends on.
const (
	methodRange      = "range"       // client → node: run a range query as this peer
	methodKNN        = "knn"         // client → node: run a k-nn query as this peer
	methodPublish    = "publish"     // client → node: post-insert one item
	methodCanSearch  = "can_search"  // node → node: one hop of an overlay lookup
	methodFetchRange = "fetch_range" // node → node: phase-two local range scan
	methodFetchKNN   = "fetch_knn"   // node → node: phase-two local k-nn scan
	methodFetchInval = "inval_fetch" // node → node: holder's item store changed, drop the entries it names
)

// The least wire size of one element of each list, the count fence
// transport.List holds a decoded count to, and of a plain fetch request.
var (
	scoreSize     = transport.Size(new(core.PeerScore), walkScore)
	sphereSize    = transport.Size(new(searchReq), walkSphere)
	answerSize    = transport.Size(&searchAnswer{Skipped: true}, walkSearchAnswer)
	invalItemSize = transport.Size(new([]float64), (*transport.Coder).Floats)
	itemDistSize  = transport.Size(new(core.ItemDist), walkItemDist)
	fetchReqMin   = transport.Size(new(fetchRangeReq), walkFetchRangeReq)
)

// ---- range ----

type rangeReq struct {
	Q    []float64
	Eps  float64
	Opts core.RangeOptions
}

func walkRangeReq(c *transport.Coder, r *rangeReq) {
	c.Floats(&r.Q)
	c.F64(&r.Eps)
	c.Int(&r.Opts.MaxPeers)
}

func walkScore(c *transport.Coder, s *core.PeerScore) {
	c.Int(&s.Peer)
	c.F64(&s.Score)
}

func walkScores(c *transport.Coder, scores *[]core.PeerScore) {
	l := transport.List(c, scores, scoreSize)
	for i := range l {
		walkScore(c, &l[i])
	}
}

// walkRangeIDs walks a range answer, here and in fetch_range, in its dense
// form (core.RangeIDs): the list delta-coded, then the bitmap chunks' keys
// delta-coded and their words. A body in any other form than the one the ids
// decide is refused. kNN answers are in distance order and stay fixed-width.
func walkRangeIDs(c *transport.Coder, r *core.RangeIDs) {
	c.IntsDelta(&r.List)
	c.IntsDelta(&r.Keys)
	c.Words(&r.Words)
	if c.Decoding() {
		if err := r.Check(); err != nil {
			c.Fail(err)
		}
	}
}

// rangeResp is a range response: the result, with its Items carried in IDs.
type rangeResp struct {
	IDs core.RangeIDs
	Res core.RangeResult // Items is not read
}

func walkRangeResp(c *transport.Coder, r *rangeResp) {
	walkRangeIDs(c, &r.IDs)
	walkScores(c, &r.Res.Scores)
	c.Int(&r.Res.PeersContacted)
	c.Int(&r.Res.OverlayHops)
}

// decodeRangeResp reads a range response into the result it carries.
func decodeRangeResp(b []byte) (core.RangeResult, error) {
	r, err := transport.Decode(b, walkRangeResp)
	if err != nil {
		return core.RangeResult{}, err
	}
	r.Res.Items = r.IDs.Items()
	return r.Res, nil
}

// ---- knn ----

type knnReq struct {
	Q    []float64
	K    int
	Opts core.KNNOptions
}

func walkKNNReq(c *transport.Coder, r *knnReq) {
	c.Floats(&r.Q)
	c.Int(&r.K)
	c.Int(&r.Opts.MaxPeers)
	c.F64(&r.Opts.C)
}

func walkKNNResp(c *transport.Coder, res *core.KNNResult) {
	c.Ints(&res.Items)
	walkScores(c, &res.Scores)
	c.Floats(&res.EpsPerLevel)
	c.Int(&res.PeersContacted)
	c.Int(&res.OverlayHops)
}

// ---- publish ----

type publishReq struct {
	ID   int
	Item []float64
}

func walkPublishReq(c *transport.Coder, r *publishReq) {
	c.Int(&r.ID)
	c.Floats(&r.Item)
}

// ---- can_search ----

// searchReq is one sphere of a can_search request. A request carries a
// count-prefixed list of them: a lookup coordinator asks a peer about every
// level of its query in one message (see probe.go), everything else sends a
// list of one.
type searchReq struct {
	Level  int
	Key    []float64
	Radius float64
	// Optional marks a sphere the sender asked about on speculation: the
	// responder skips it when the sphere misses its zones, where no flood
	// would have claimed it.
	Optional bool
}

// searchFlagOptional is the one flag bit a sphere may carry (bit 0 is
// retired); walkSphere refuses any other.
const searchFlagOptional = 1 << 1

func walkSphere(c *transport.Coder, r *searchReq) {
	c.Int(&r.Level)
	c.Floats(&r.Key)
	c.F64(&r.Radius)
	var flags uint8
	if r.Optional {
		flags = searchFlagOptional
	}
	c.U8(&flags)
	if flags&^searchFlagOptional != 0 {
		c.Fail(fmt.Errorf("node: can_search sphere has unknown flag bits %#x", flags))
	}
	if c.Decoding() {
		r.Optional = flags&searchFlagOptional != 0
	}
}

func walkSearchReq(c *transport.Coder, reqs *[]searchReq) {
	l := transport.List(c, reqs, sphereSize)
	for i := range l {
		walkSphere(c, &l[i])
	}
}

// searchView is one node's answer to a can_search hop: its identity and
// zones (routing), its neighbor table (the coordinator's next-hop and flood
// decisions; addresses included so coordinators learn how to reach peers that
// joined after their address book was seeded), and its stored records — owned
// and replicas kept separate, each in storage order, with their overlay
// sequence numbers so the coordinator deduplicates replicas exactly like the
// in-process flood. Only the records matching the query sphere are carried.
type searchView struct {
	ID        int
	Zones     []can.Zone
	Neighbors []membership.Neighbor
	Owned     []can.RecordView
	Replicas  []can.RecordView
}

func walkSearchView(c *transport.Coder, v *searchView) {
	c.Int(&v.ID)
	membership.WalkZones(c, &v.Zones)
	membership.WalkNeighbors(c, &v.Neighbors)
	membership.WalkRecords(c, &v.Owned)
	membership.WalkRecords(c, &v.Replicas)
}

// searchAnswer is one slot of a can_search response, in request order: the
// view of that sphere, or Skipped for an optional sphere the responder's
// zones do not touch.
type searchAnswer struct {
	View    searchView
	Skipped bool
}

// walkSearchAnswer puts a byte length in front of the view, so the receiver
// can split the response without decoding a view it may never read
// (splitSearchResp). A skipped slot is a zero length and nothing else: a view
// is never empty (id and four list counts alone take 24 bytes).
func walkSearchAnswer(c *transport.Coder, a *searchAnswer) {
	present := !a.Skipped
	mark := c.Begin(&present)
	if c.Decoding() {
		a.Skipped = !present
	}
	if present {
		walkSearchView(c, &a.View)
		c.End(mark)
	}
}

func walkSearchResp(c *transport.Coder, answers *[]searchAnswer) {
	l := transport.List(c, answers, answerSize)
	for i := range l {
		walkSearchAnswer(c, &l[i])
	}
}

// splitSearchResp cuts a can_search response into its encoded views without
// decoding any: out[i] aliases b and answers the request's i-th sphere, nil
// where the responder skipped it. The count is fenced by the bytes that
// remain and every length by Decoder.Bytes, so a corrupt prefix is an error,
// never an allocation.
func splitSearchResp(b []byte) ([][]byte, error) {
	d := transport.NewDecoder(b)
	var out [][]byte
	if n := d.Count(answerSize); n > 0 {
		out = make([][]byte, n)
		for i := range out {
			out[i] = d.Bytes()
		}
	}
	return out, d.Finish()
}

// ---- inval_fetch ----

// inval_fetch carries the holder's id and the newly published items, so the
// receiver drops exactly the cached answers those items can change. A batched
// publish ships every item in one notification. No publish is empty, so an
// empty list is free to mean the other thing a holder can have to say: drop
// every answer of mine (the lost-mark fallback, see fetchcache.go).
type invalReq struct {
	Holder int
	Items  [][]float64
}

func walkInvalReq(c *transport.Coder, r *invalReq) {
	c.Int(&r.Holder)
	l := transport.List(c, &r.Items, invalItemSize)
	for i := range l {
		c.Floats(&l[i])
	}
}

// ---- fetch_range / fetch_knn ----

// Both requests are a query vector followed by eps or k (the plain form), and
// optionally the peer id of a caching coordinator: the subscriber the holder
// lists on the answer's directory line and notifies when a publish changes it.

// fetchReqSize is the wire size of a plain fetch request over dim coordinates.
func fetchReqSize(dim int) int { return fetchReqMin + 8*dim }

// appendSubscriber turns a plain fetch request into the caching form.
func appendSubscriber(plain []byte, peer int) []byte {
	return binary.BigEndian.AppendUint64(plain, uint64(int64(peer)))
}

// splitFetchReq cuts a fetch request over dim coordinates into its plain form
// — the memo key, and what walkFetchRangeReq / walkFetchKNNReq read — and
// the subscriber id, if one follows. A caching request is as long as a plain
// one of a coordinate more, so the length alone cannot tell them apart: the
// count must be the holder's dimension, and then anything but exactly zero or
// eight bytes after the plain form is refused.
func splitFetchReq(b []byte, dim int) (plain []byte, sub int, caching bool, err error) {
	size := fetchReqSize(dim)
	if len(b) < 4 || binary.BigEndian.Uint32(b) != uint32(dim) || (len(b) != size && len(b) != size+8) {
		return nil, 0, false, fmt.Errorf("node: fetch request of %d bytes, want %d coordinates in %d or %d", len(b), dim, size, size+8)
	}
	if len(b) == size {
		return b, 0, false, nil
	}
	return b[:size], int(int64(binary.BigEndian.Uint64(b[size:]))), true, nil
}

// The request walkers are the codec's statement of the plain form. A
// coordinator writes the same bytes through fetchKey (fetchcache.go), whose
// output doubles as the memo key; TestFetchDirKeyIsTaggedPlainRequest holds the
// two together.
type fetchRangeReq struct {
	Q   []float64
	Eps float64
}

func walkFetchRangeReq(c *transport.Coder, r *fetchRangeReq) {
	c.Floats(&r.Q)
	c.F64(&r.Eps)
}

type fetchKNNReq struct {
	Q []float64
	K int
}

func walkFetchKNNReq(c *transport.Coder, r *fetchKNNReq) {
	c.Floats(&r.Q)
	c.Int(&r.K)
}

func walkItemDist(c *transport.Coder, it *core.ItemDist) {
	c.Int(&it.ID)
	c.F64(&it.Dist2)
}

func walkFetchKNNResp(c *transport.Coder, items *[]core.ItemDist) {
	l := transport.List(c, items, itemDistSize)
	for i := range l {
		walkItemDist(c, &l[i])
	}
}
