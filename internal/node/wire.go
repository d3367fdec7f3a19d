package node

import (
	"encoding/binary"
	"fmt"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/transport"
)

// RPC methods served by a Node. The bodies are binary messages built with
// the transport codec; float64 values cross the wire bit-exactly, which the
// determinism oracle depends on.
const (
	methodRange      = "range"       // client → node: run a range query as this peer
	methodKNN        = "knn"         // client → node: run a k-nn query as this peer
	methodPublish    = "publish"     // client → node: post-insert one item
	methodCanSearch  = "can_search"  // node → node: one hop of an overlay lookup
	methodFetchRange = "fetch_range" // node → node: phase-two local range scan
	methodFetchKNN   = "fetch_knn"   // node → node: phase-two local k-nn scan
	methodFetchInval = "inval_fetch" // node → node: holder's item store changed, drop the entries it names
)

// ---- range ----

func encodeRangeReq(q []float64, eps float64, opts core.RangeOptions) []byte {
	var e transport.Encoder
	e.Floats(q)
	e.F64(eps)
	e.Int(opts.MaxPeers)
	return e.Bytes()
}

func decodeRangeReq(b []byte) (q []float64, eps float64, opts core.RangeOptions, err error) {
	d := transport.NewDecoder(b)
	q = d.FloatsShared()
	eps = d.F64()
	opts.MaxPeers = d.Int()
	return q, eps, opts, d.Finish()
}

func encodeScores(e *transport.Encoder, scores []core.PeerScore) {
	e.Grow(4 + 16*len(scores))
	e.U32(uint32(len(scores)))
	for _, s := range scores {
		e.Int(s.Peer)
		e.F64(s.Score)
	}
}

func decodeScores(d *transport.Decoder) []core.PeerScore {
	n := d.Count(16)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]core.PeerScore, n)
	for i := range out {
		out[i] = core.PeerScore{Peer: d.Int(), Score: d.F64()}
	}
	return out
}

// Range answers (here and in fetch_range) are ascending id runs, so they
// travel delta-coded; kNN answers are in distance order and stay fixed-width.
func encodeRangeResp(res core.RangeResult) []byte {
	var e transport.Encoder
	e.IntsDelta(res.Items)
	encodeScores(&e, res.Scores)
	e.Int(res.PeersContacted)
	e.Int(res.OverlayHops)
	return e.Bytes()
}

func decodeRangeResp(b []byte) (core.RangeResult, error) {
	d := transport.NewDecoder(b)
	var res core.RangeResult
	res.Items = d.IntsDeltaShared()
	res.Scores = decodeScores(d)
	res.PeersContacted = d.Int()
	res.OverlayHops = d.Int()
	return res, d.Finish()
}

// ---- knn ----

func encodeKNNReq(q []float64, k int, opts core.KNNOptions) []byte {
	var e transport.Encoder
	e.Floats(q)
	e.Int(k)
	e.Int(opts.MaxPeers)
	e.F64(opts.C)
	return e.Bytes()
}

func decodeKNNReq(b []byte) (q []float64, k int, opts core.KNNOptions, err error) {
	d := transport.NewDecoder(b)
	q = d.FloatsShared()
	k = d.Int()
	opts.MaxPeers = d.Int()
	opts.C = d.F64()
	return q, k, opts, d.Finish()
}

func encodeKNNResp(res core.KNNResult) []byte {
	var e transport.Encoder
	e.Ints(res.Items)
	encodeScores(&e, res.Scores)
	e.Floats(res.EpsPerLevel)
	e.Int(res.PeersContacted)
	e.Int(res.OverlayHops)
	return e.Bytes()
}

func decodeKNNResp(b []byte) (core.KNNResult, error) {
	d := transport.NewDecoder(b)
	var res core.KNNResult
	res.Items = d.IntsShared()
	res.Scores = decodeScores(d)
	res.EpsPerLevel = d.FloatsShared()
	res.PeersContacted = d.Int()
	res.OverlayHops = d.Int()
	return res, d.Finish()
}

// ---- publish ----

func encodePublishReq(id int, item []float64) []byte {
	var e transport.Encoder
	e.Int(id)
	e.Floats(item)
	return e.Bytes()
}

func decodePublishReq(b []byte) (id int, item []float64, err error) {
	d := transport.NewDecoder(b)
	id = d.Int()
	item = d.FloatsShared()
	return id, item, d.Finish()
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
// retired); decodeSearchReq rejects any other.
const searchFlagOptional = 1 << 1

// searchReqMinSize is the wire size of a sphere with an empty key, the bound
// Decoder.Count holds a request's count to.
const searchReqMinSize = 8 + 4 + 8 + 1

func encodeSearchReq(reqs []searchReq) []byte {
	var e transport.Encoder
	size := 4
	for _, r := range reqs {
		size += searchReqMinSize + 8*len(r.Key)
	}
	e.Grow(size)
	e.U32(uint32(len(reqs)))
	for _, r := range reqs {
		e.Int(r.Level)
		e.Floats(r.Key)
		e.F64(r.Radius)
		var flags uint8
		if r.Optional {
			flags |= searchFlagOptional
		}
		e.U8(flags)
	}
	return e.Bytes()
}

func decodeSearchReq(b []byte) ([]searchReq, error) {
	d := transport.NewDecoder(b)
	var reqs []searchReq
	if n := d.Count(searchReqMinSize); d.Err() == nil && n > 0 {
		reqs = make([]searchReq, n)
		for i := range reqs {
			r := &reqs[i]
			r.Level = d.Int()
			r.Key = d.FloatsShared()
			r.Radius = d.F64()
			flags := d.U8()
			if d.Err() == nil && flags&^searchFlagOptional != 0 {
				return nil, fmt.Errorf("node: can_search sphere %d has unknown flag bits %#x", i, flags)
			}
			r.Optional = flags&searchFlagOptional != 0
		}
	}
	return reqs, d.Finish()
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

// searchRespSize is the exact wire size of encodeSearchView's output, so the
// hot can_search reply path allocates its buffer once (records' cluster-ref
// centers share the key's dimensionality).
func searchRespSize(v searchView) int {
	zones := func(zs []can.Zone) int {
		n := 4
		for _, z := range zs {
			n += 8 + 8*(len(z.Lo)+len(z.Hi))
		}
		return n
	}
	recs := func(rs []can.RecordView) int {
		n := 4
		for _, rec := range rs {
			n += 8 + 4 + 8*len(rec.Entry.Key) + 8 + 24 + 4 + 8*len(rec.Entry.Key) + 8 + 8
		}
		return n
	}
	n := 8 + zones(v.Zones) + 4
	for _, nb := range v.Neighbors {
		n += 8 + 4 + len(nb.Addr) + zones(nb.Zones)
	}
	return n + recs(v.Owned) + recs(v.Replicas)
}

// encodeSearchView appends one searchView to an encoder.
func encodeSearchView(e *transport.Encoder, v searchView) error {
	e.Int(v.ID)
	membership.EncodeZones(e, v.Zones)
	membership.EncodeNeighbors(e, v.Neighbors)
	if err := membership.EncodeRecords(e, v.Owned); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	if err := membership.EncodeRecords(e, v.Replicas); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	return nil
}

func decodeSearchView(d *transport.Decoder) searchView {
	var v searchView
	v.ID = d.Int()
	v.Zones = membership.DecodeZones(d)
	v.Neighbors = membership.DecodeNeighbors(d)
	v.Owned = membership.DecodeRecords(d)
	v.Replicas = membership.DecodeRecords(d)
	return v
}

// searchAnswer is one slot of a can_search response, in request order: the
// view of that sphere, or Skipped for an optional sphere the responder's
// zones do not touch.
type searchAnswer struct {
	View    searchView
	Skipped bool
}

// encodeSearchResp writes a count-prefixed list of length-prefixed views; a
// skipped slot is a zero length and nothing else (a view is never empty: id
// and four list counts alone take 24 bytes). The lengths let the
// receiver split the message without decoding a view it may never read.
func encodeSearchResp(answers []searchAnswer) ([]byte, error) {
	var e transport.Encoder
	size := 4
	for _, a := range answers {
		size += 4
		if !a.Skipped {
			size += searchRespSize(a.View)
		}
	}
	e.Grow(size)
	e.U32(uint32(len(answers)))
	for _, a := range answers {
		if a.Skipped {
			e.U32(0)
			continue
		}
		at := e.Len()
		e.U32(0)
		if err := encodeSearchView(&e, a.View); err != nil {
			return nil, err
		}
		e.SetU32(at, uint32(e.Len()-at-4))
	}
	return e.Bytes(), nil
}

// splitSearchResp cuts a can_search response into its encoded views without
// decoding any: out[i] aliases b and answers the request's i-th sphere, nil
// where the responder skipped it. The count is fenced by the bytes that
// remain and every length by Decoder.Bytes, so a corrupt prefix is an error,
// never an allocation.
func splitSearchResp(b []byte) ([][]byte, error) {
	d := transport.NewDecoder(b)
	var out [][]byte
	if n := d.Count(4); d.Err() == nil && n > 0 {
		out = make([][]byte, n)
		for i := range out {
			out[i] = d.Bytes()
		}
	}
	return out, d.Finish()
}

// decodeSearchSlot decodes one view cut out by splitSearchResp.
func decodeSearchSlot(b []byte) (searchView, error) {
	d := transport.NewDecoder(b)
	v := decodeSearchView(d)
	return v, d.Finish()
}

// ---- inval_fetch ----

// inval_fetch carries the holder's id and the newly published items, so the
// receiver drops exactly the cached answers those items can change. A batched
// publish ships every item in one notification. No publish is empty, so an
// empty list is free to mean the other thing a holder can have to say: drop
// every answer of mine (the lost-mark fallback, see fetchcache.go).
func encodeInvalReq(holder int, items [][]float64) []byte {
	var e transport.Encoder
	size := 12
	for _, it := range items {
		size += 4 + 8*len(it)
	}
	e.Grow(size)
	e.Int(holder)
	e.U32(uint32(len(items)))
	for _, it := range items {
		e.Floats(it)
	}
	return e.Bytes()
}

func decodeInvalReq(b []byte) (holder int, items [][]float64, err error) {
	d := transport.NewDecoder(b)
	holder = d.Int()
	// An item costs at least 4 bytes (empty vector length prefix), which
	// bounds a sane count against the message size.
	if n := d.Count(4); d.Err() == nil && n > 0 {
		items = make([][]float64, n)
		for i := range items {
			items[i] = d.FloatsShared()
		}
	}
	return holder, items, d.Finish()
}

// ---- fetch_range / fetch_knn ----

// Both requests are a query vector followed by eps or k (the plain form), and
// optionally the peer id of a caching coordinator: the subscriber the holder
// lists on the answer's directory line and notifies when a publish changes it.

// fetchReqSize is the wire size of a plain fetch request over dim coordinates.
func fetchReqSize(dim int) int { return 4 + 8*dim + 8 }

// appendSubscriber turns a plain fetch request into the caching form.
func appendSubscriber(plain []byte, peer int) []byte {
	return binary.BigEndian.AppendUint64(plain, uint64(int64(peer)))
}

// splitFetchReq cuts a fetch request over dim coordinates into its plain form
// — the memo key, and what decodeFetchRangeReq / decodeFetchKNNReq read — and
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

// The request encoders are the codec's statement of the plain form. A
// coordinator writes the same bytes through fetchKey (fetchcache.go), whose
// output doubles as the memo key; TestFetchDirKeyIsTaggedPlainRequest holds the
// two together.
func encodeFetchRangeReq(q []float64, eps float64) []byte {
	var e transport.Encoder
	e.Floats(q)
	e.F64(eps)
	return e.Bytes()
}

func decodeFetchRangeReq(b []byte) (q []float64, eps float64, err error) {
	d := transport.NewDecoder(b)
	q = d.FloatsShared()
	eps = d.F64()
	return q, eps, d.Finish()
}

func encodeFetchRangeResp(ids []int) []byte {
	var e transport.Encoder
	e.IntsDelta(ids)
	return e.Bytes()
}

func decodeFetchRangeResp(b []byte) ([]int, error) {
	d := transport.NewDecoder(b)
	ids := d.IntsDeltaShared()
	return ids, d.Finish()
}

func encodeFetchKNNReq(q []float64, k int) []byte {
	var e transport.Encoder
	e.Floats(q)
	e.Int(k)
	return e.Bytes()
}

func decodeFetchKNNReq(b []byte) (q []float64, k int, err error) {
	d := transport.NewDecoder(b)
	q = d.FloatsShared()
	k = d.Int()
	return q, k, d.Finish()
}

func encodeFetchKNNResp(items []core.ItemDist) []byte {
	var e transport.Encoder
	e.Grow(4 + 16*len(items))
	e.U32(uint32(len(items)))
	for _, it := range items {
		e.Int(it.ID)
		e.F64(it.Dist2)
	}
	return e.Bytes()
}

func decodeFetchKNNResp(b []byte) ([]core.ItemDist, error) {
	d := transport.NewDecoder(b)
	var items []core.ItemDist
	if n := d.Count(16); d.Err() == nil && n > 0 {
		items = make([]core.ItemDist, n)
		for i := range items {
			items[i] = core.ItemDist{ID: d.Int(), Dist2: d.F64()}
		}
	}
	return items, d.Finish()
}
