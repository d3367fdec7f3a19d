package node

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/transport"
	"hyperm/internal/transport/wiretest"
)

// The can_search message carries two count-prefixed lists a peer fills in: the
// spheres of a request and the length-prefixed views of a response. Both
// decoders must treat every prefix as hostile: bounded by the bytes that
// remain (Decoder.Count, Decoder.Bytes), an error otherwise, never a slice
// sized from the prefix alone.

func searchReqSeed() []byte {
	return encodeSearchReq([]searchReq{
		{Level: 0, Key: []float64{0.25}, Radius: 0.1},
		{Level: 1, Key: []float64{0.5, 0.75}, Radius: 0.2, Optional: true},
		{Level: 2},
	})
}

// withLastFlags returns an encoded can_search request with the flag byte of
// its last sphere — the message's last byte — replaced.
func withLastFlags(b []byte, flags uint8) []byte {
	out := bytes.Clone(b)
	out[len(out)-1] = flags
	return out
}

func searchRespSeed(t testing.TB) []byte {
	body, err := encodeSearchResp([]searchAnswer{{View: benchView(3)}, {Skipped: true}, {View: benchView(0)}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// withCount returns b with its leading count replaced.
func withCount(b []byte, n uint32) []byte {
	out := bytes.Clone(b)
	binary.BigEndian.PutUint32(out, n)
	return out
}

// wireMessages lists every node body with its walker, the call that encodes
// it, and seed values: TestWireConforms checks each, and FuzzNodeWire picks
// from them by index.
func wireMessages() []wiretest.Message {
	q := []float64{0.25, -1.5}
	scores := []core.PeerScore{{Peer: 2, Score: 0.5}, {Peer: 5, Score: math.Inf(1)}}
	return []wiretest.Message{
		wiretest.Of("range request", walkRangeReq,
			func(r *rangeReq) []byte { return transport.Encode(r, walkRangeReq) },
			rangeReq{}, rangeReq{Q: q, Eps: 0.125, Opts: core.RangeOptions{MaxPeers: 3}}),
		wiretest.Of("range response", walkRangeResp,
			func(r *rangeResp) []byte { return transport.Encode(r, walkRangeResp) },
			rangeResp{}, rangeResp{IDs: core.RangeIDsOf([]int{3, 4, 9, 300, 299, -1 << 40}), Res: core.RangeResult{Scores: scores, PeersContacted: 2, OverlayHops: 7}},
			rangeResp{IDs: denseIDs(), Res: core.RangeResult{Scores: scores[:1], PeersContacted: 1}}),
		wiretest.Of("knn request", walkKNNReq,
			func(r *knnReq) []byte { return transport.Encode(r, walkKNNReq) },
			knnReq{}, knnReq{Q: q, K: 4, Opts: core.KNNOptions{MaxPeers: 2, C: 1.5}}),
		wiretest.Of("knn response", walkKNNResp,
			func(r *core.KNNResult) []byte { return transport.Encode(r, walkKNNResp) },
			core.KNNResult{}, core.KNNResult{Items: []int{9, -3}, Scores: scores, EpsPerLevel: []float64{0.1, math.NaN()}, PeersContacted: 1, OverlayHops: 4}),
		wiretest.Of("publish request", walkPublishReq,
			func(r *publishReq) []byte { return transport.Encode(r, walkPublishReq) },
			publishReq{}, publishReq{ID: 7001, Item: q}),
		wiretest.Of("can_search request", walkSearchReq,
			func(reqs *[]searchReq) []byte { return transport.Encode(reqs, walkSearchReq) },
			nil, []searchReq{{Level: 0, Key: []float64{0.25}, Radius: 0.1}, {Level: 1, Key: q, Optional: true}, {}}),
		wiretest.Of("can_search response", walkSearchResp,
			func(answers *[]searchAnswer) []byte { return transport.Encode(answers, walkSearchResp) },
			nil, []searchAnswer{{Skipped: true}, {}}, []searchAnswer{{View: benchView(3)}, {Skipped: true}, {View: benchView(0)}}),
		wiretest.Of("inval_fetch", walkInvalReq,
			func(r *invalReq) []byte { return transport.Encode(r, walkInvalReq) },
			invalReq{Holder: 5}, invalReq{Holder: 5, Items: [][]float64{q, nil, {1}}}),
		wiretest.Of("fetch_range request", walkFetchRangeReq,
			func(r *fetchRangeReq) []byte { return transport.Encode(r, walkFetchRangeReq) },
			fetchRangeReq{}, fetchRangeReq{Q: q, Eps: 0.125}),
		wiretest.Of("fetch_range response", walkRangeIDs,
			func(ids *core.RangeIDs) []byte { return transport.Encode(ids, walkRangeIDs) },
			core.RangeIDs{}, core.RangeIDsOf([]int{1, 2, 40, 41, 1 << 20, 1<<20 + 1}), denseIDs()),
		wiretest.Of("fetch_knn request", walkFetchKNNReq,
			func(r *fetchKNNReq) []byte { return transport.Encode(r, walkFetchKNNReq) },
			fetchKNNReq{}, fetchKNNReq{Q: q, K: 3}),
		wiretest.Of("fetch_knn response", walkFetchKNNResp,
			func(items *[]core.ItemDist) []byte { return transport.Encode(items, walkFetchKNNResp) },
			nil, []core.ItemDist{{ID: 8, Dist2: 0.5}, {ID: 2, Dist2: 0.75}}),
	}
}

func TestWireConforms(t *testing.T) { wiretest.Check(t, wireMessages()) }

// denseIDs is a range answer with a bitmap chunk: 4097 ids of chunk 1, one
// more than a list may hold, beside list ids below it (a negative one
// included) and above it (a publish id).
func denseIDs() core.RangeIDs {
	ids := []int{-5, 3}
	for id := 1 << 16; id < 1<<16+2*4097; id += 2 {
		ids = append(ids, id)
	}
	return core.RangeIDsOf(append(ids, 1<<24))
}

// FuzzRangeIDsRoundTrip reads the input twice. As a body: one walkRangeIDs
// accepts must re-encode to itself and be the form its own ids decide. As
// ids: from start, each byte below 128 is a step of that size (0 repeats an
// id) and each other byte a run of (b-127)·32 consecutive ids, so a few bytes
// fill a chunk past its cut (the ids stop after three chunks' worth);
// reversed or not, their form must cross the wire unchanged and materialise
// to them.
func FuzzRangeIDsRoundTrip(f *testing.F) {
	f.Add(encodeFetchRangeResp(denseIDs()), int64(0), false)
	f.Add(encodeFetchRangeResp(core.RangeIDsOf([]int{1, 2, 40, 41, 1 << 20})), int64(-1<<16+100), false)
	f.Add([]byte{}, int64(1<<24), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, int64(1<<16-2000), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0}, int64(0), false)
	f.Fuzz(func(t *testing.T, raw []byte, start int64, reverse bool) {
		if r, err := transport.Decode(raw, walkRangeIDs); err == nil {
			if again := encodeFetchRangeResp(r); !bytes.Equal(again, raw) {
				t.Fatalf("accepted body re-encodes to other bytes:\nin:  %x\nout: %x", raw, again)
			}
			if canon := core.RangeIDsOf(slices.Clone(r.Items())); !slices.Equal(canon.List, r.List) || !slices.Equal(canon.Keys, r.Keys) || !slices.Equal(canon.Words, r.Words) {
				t.Fatalf("accepted a body of %d chunks and %d listed ids; its ids' form has %d and %d", len(r.Keys), len(r.List), len(canon.Keys), len(canon.List))
			}
		}
		if start > 1<<40 || start < -1<<40 {
			return
		}
		var ids []int
		id := int(start)
		for _, b := range raw {
			if len(ids) > 3*4096 {
				break
			}
			if b < 0x80 {
				id += int(b)
				ids = append(ids, id)
				continue
			}
			for range (int(b) - 0x7f) * 32 {
				id++
				ids = append(ids, id)
			}
		}
		if reverse {
			slices.Reverse(ids)
		}
		form := core.RangeIDsOf(ids)
		got, err := transport.Decode(encodeFetchRangeResp(form), walkRangeIDs)
		if err != nil {
			t.Fatalf("the form of %d ids (%d chunks) is refused: %v", len(ids), len(form.Keys), err)
		}
		if items := got.Items(); !slices.Equal(items, ids) {
			t.Fatalf("%d ids (%d chunks) come back as %d", len(ids), len(form.Keys), len(items))
		}
	})
}

// walkRangeIDsPermissive is walkRangeIDs without its form check: it reads
// any list, keys and words the fields can hold.
func walkRangeIDsPermissive(c *transport.Coder, r *core.RangeIDs) {
	c.IntsDelta(&r.List)
	c.IntsDelta(&r.Keys)
	c.Words(&r.Words)
}

// TestRangeIDsWireRefusesNonCanonical: each body below is well-formed field by
// field — a permissive decoder reads it — but carries a form no encoder
// writes for its ids, and walkRangeIDs refuses it.
func TestRangeIDsWireRefusesNonCanonical(t *testing.T) {
	good := denseIDs()
	if len(good.Keys) != 1 || len(good.List) != 3 {
		t.Fatalf("seed answer has %d chunks and %d list ids, want 1 and 3", len(good.Keys), len(good.List))
	}
	edit := func(f func(r *core.RangeIDs)) core.RangeIDs {
		r := core.RangeIDs{List: slices.Clone(good.List), Keys: slices.Clone(good.Keys), Words: slices.Clone(good.Words)}
		f(&r)
		return r
	}
	second := func(r *core.RangeIDs) { // a second chunk, 2, as full as the first
		r.Keys = append(r.Keys, 2)
		r.Words = append(r.Words, good.Words...)
		r.List = r.List[:2]
	}
	for name, hostile := range map[string]core.RangeIDs{
		"bitmap chunk of 4096 ids": edit(func(r *core.RangeIDs) { r.Words[0] &= r.Words[0] - 1 }),
		"bitmap chunk of one id": edit(func(r *core.RangeIDs) {
			clear(r.Words)
			r.Words[0] = 1
		}),
		"chunk keys descend":             edit(func(r *core.RangeIDs) { second(r); r.Keys[0], r.Keys[1] = 2, 1 }),
		"chunk keys repeat":              edit(func(r *core.RangeIDs) { second(r); r.Keys[1] = 1 }),
		"list id inside a dense chunk":   edit(func(r *core.RangeIDs) { r.List[2] = 1<<16 + 1 }),
		"list descends beside chunks":    edit(func(r *core.RangeIDs) { r.List[0], r.List[1] = r.List[1], r.List[0] }),
		"list repeats beside chunks":     edit(func(r *core.RangeIDs) { r.List[0] = r.List[1] }),
		"word count short of the chunks": edit(func(r *core.RangeIDs) { r.Words = r.Words[:len(r.Words)-1] }),
		"word count past the chunks":     edit(func(r *core.RangeIDs) { r.Words = append(r.Words, 0) }),
		"words without a chunk":          edit(func(r *core.RangeIDs) { r.Keys = nil }),
		"chunk key past the ints":        edit(func(r *core.RangeIDs) { r.Keys[0] = math.MaxInt>>16 + 1 }),
		"dense chunk left in the list":   {List: good.Items()},
		"dense chunk listed beside one": edit(func(r *core.RangeIDs) {
			r.List = r.List[:2]
			for id := 1 << 20; id <= 1<<20+4096; id++ {
				r.List = append(r.List, id)
			}
		}),
	} {
		body := transport.Encode(&hostile, walkRangeIDsPermissive)
		if _, err := transport.Decode(body, walkRangeIDsPermissive); err != nil {
			t.Errorf("%s: the permissive decoder refuses it too: %v", name, err)
		}
		if got, err := transport.Decode(body, walkRangeIDs); err == nil {
			t.Errorf("%s: decoded to %d ids in %d chunks, want an error", name, got.Len(), len(got.Keys))
		}
		resp := transport.Encode(&rangeResp{IDs: hostile}, func(c *transport.Coder, r *rangeResp) {
			walkRangeIDsPermissive(c, &r.IDs)
			walkScores(c, &r.Res.Scores)
			c.Int(&r.Res.PeersContacted)
			c.Int(&r.Res.OverlayHops)
		})
		if got, err := decodeRangeResp(resp); err == nil {
			t.Errorf("%s: range response decoded to %d items, want an error", name, len(got.Items))
		}
	}
}

// TestWireListFences pins the count fence of every node list, worked out from
// its element walker, to the wire size of the list's least element, and the
// plain fetch request of either method to one size (splitFetchReq cuts both).
func TestWireListFences(t *testing.T) {
	for name, c := range map[string]struct{ got, want int }{
		"sphere":                  {sphereSize, 21},
		"score":                   {scoreSize, 16},
		"item-dist":               {itemDistSize, 16},
		"inval item":              {invalItemSize, 4},
		"skipped can_search slot": {answerSize, 4},
		"plain fetch_range":       {fetchReqMin, 12},
		"plain fetch_knn":         {transport.Size(new(fetchKNNReq), walkFetchKNNReq), fetchReqMin},
	} {
		if c.got != c.want {
			t.Errorf("%s: least wire size %d, want %d", name, c.got, c.want)
		}
	}
}

// FuzzNodeWire holds every node body to the codec's contract
// (wiretest.Conforms): the first input byte picks the message, the rest is its
// body. The can_search request is also seeded with a corrupt count, a
// trailing byte and a retired flag bit, and every one accepted goes through
// checkSearchFlags.
func FuzzNodeWire(f *testing.F) {
	msgs := wireMessages()
	search := byte(slices.IndexFunc(msgs, func(m wiretest.Message) bool { return m.Name == "can_search request" }))
	seed := searchReqSeed()
	for _, b := range [][]byte{seed, withCount(seed, 1<<31), append(bytes.Clone(seed), 0), {}, withLastFlags(seed, 1<<0)} {
		f.Add(append([]byte{search}, b...))
	}
	for _, b := range wiretest.Seeds(msgs) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Fuzz(t, msgs, raw)
		if len(raw) > 0 && raw[0]%byte(len(msgs)) == search {
			checkSearchFlags(t, raw[1:])
		}
	})
}

// checkSearchFlags holds an accepted can_search request to its flag byte: it
// carries no bit but searchFlagOptional, and setting any other makes the
// request one that is refused. (The message ends on its last sphere's flag
// byte.)
func checkSearchFlags(t *testing.T, body []byte) {
	reqs, err := transport.Decode(body, walkSearchReq)
	if err != nil || len(reqs) == 0 {
		return
	}
	last := body[len(body)-1]
	if last&^searchFlagOptional != 0 {
		t.Fatalf("decoded a request whose last sphere has flags %#x", last)
	}
	for bit := uint8(1); bit != 0; bit <<= 1 {
		if bit == searchFlagOptional {
			continue
		}
		if _, err := transport.Decode(withLastFlags(body, last|bit), walkSearchReq); err == nil {
			t.Fatalf("request with unknown flag bit %#x decoded", bit)
		}
	}
	if len(reqs)*sphereSize > len(body) {
		t.Fatalf("%d spheres decoded from %d bytes", len(reqs), len(body))
	}
}

func TestSearchWireRejectsCorruptPrefixes(t *testing.T) {
	req, resp := searchReqSeed(), searchRespSeed(t)
	if _, err := transport.Decode(req, walkSearchReq); err != nil {
		t.Fatalf("seed request: %v", err)
	}
	if _, err := splitSearchResp(resp); err != nil {
		t.Fatalf("seed response: %v", err)
	}
	// The first view's length prefix sits right after the count.
	longView := bytes.Clone(resp)
	binary.BigEndian.PutUint32(longView[4:], uint32(len(resp)))
	shortView := bytes.Clone(resp)
	binary.BigEndian.PutUint32(shortView[4:], binary.BigEndian.Uint32(resp[4:])-1)

	for name, b := range map[string][]byte{
		"request count beyond the message": withCount(req, 1<<31),
		"request count one too many":       withCount(req, 4),
		"request count one too few":        withCount(req, 2),
		"request trailing byte":            append(bytes.Clone(req), 0),
		"request truncated":                req[:len(req)-1],
		"request retired full flag":        withLastFlags(req, 1<<0),
		"request unknown flag beside ours": withLastFlags(req, searchFlagOptional|1<<7),
	} {
		if reqs, err := transport.Decode(b, walkSearchReq); err == nil {
			t.Errorf("%s: decoded %d spheres, want an error", name, len(reqs))
		}
	}
	for name, b := range map[string][]byte{
		"response count beyond the message":  withCount(resp, 1<<31),
		"response count one too many":        withCount(resp, 4),
		"response count one too few":         withCount(resp, 2),
		"response view length beyond":        longView,
		"response trailing byte":             append(bytes.Clone(resp), 0),
		"response truncated inside a view":   resp[:len(resp)-1],
		"response truncated inside a prefix": resp[:6],
	} {
		if slots, err := splitSearchResp(b); err == nil {
			t.Errorf("%s: split into %d views, want an error", name, len(slots))
		}
	}
	// A length that cuts a view one byte short shifts every later prefix: the
	// split fails, or yields a first slot that does not decode.
	if slots, err := splitSearchResp(shortView); err == nil {
		if _, err := transport.Decode(slots[0], walkSearchView); err == nil {
			t.Error("a view cut one byte short decoded")
		}
	}
	if _, err := transport.Decode(nil, walkSearchView); err == nil {
		t.Error("a skipped slot decoded as a view")
	}
}

func FuzzSearchRespDecode(f *testing.F) {
	seed := searchRespSeed(f)
	f.Add(seed)
	f.Add(withCount(seed, 1<<31))
	f.Add(append(bytes.Clone(seed), 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		slots, err := splitSearchResp(raw)
		if err != nil {
			return
		}
		// The views and their prefixes account for the message exactly, so
		// nothing was sized from a prefix alone.
		size := 4
		for _, s := range slots {
			size += 4 + len(s)
		}
		if size != len(raw) {
			t.Fatalf("%d views of %d bytes in all split from a %d-byte message", len(slots), size, len(raw))
		}
		answers := make([]searchAnswer, len(slots))
		for i, s := range slots {
			if s == nil {
				answers[i].Skipped = true
				continue
			}
			v, err := transport.Decode(s, walkSearchView)
			if err != nil {
				return // a view that does not decode: nothing to round-trip
			}
			answers[i].View = v
		}
		b1, err := encodeSearchResp(answers)
		if err != nil {
			t.Fatalf("decoded response failed to re-encode: %v", err)
		}
		slots2, err := splitSearchResp(b1)
		if err != nil || len(slots2) != len(slots) {
			t.Fatalf("re-encoded response split into %d views (%v), want %d", len(slots2), err, len(slots))
		}
		for i, s := range slots2 {
			if (s == nil) != answers[i].Skipped {
				t.Fatalf("slot %d: skipped flag changed across the round trip", i)
			}
			if s == nil {
				continue
			}
			v, err := transport.Decode(s, walkSearchView)
			if err != nil {
				t.Fatalf("slot %d of the re-encoded response failed to decode: %v", i, err)
			}
			answers[i].View = v
		}
		if b2, err := encodeSearchResp(answers); err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("can_search response round-trip not a fixed point (%v):\nfirst:  %x\nsecond: %x", err, b1, b2)
		}
	})
}

// A fetch request comes in two forms — plain, and plain followed by the id of
// the caching coordinator to list on the answer's directory line. The handler
// cuts it with splitFetchReq before anything is decoded, so that is where a
// hostile length or count must stop.

// checkFetchReq holds one well-formed request of either method to its
// contract: it splits into the plain form and the subscriber it was built
// from, the plain form decodes to the vector it carries, and nothing else of
// it is accepted — no strict prefix but the plain form of a caching request,
// no trailing byte, no float count but the holder's dimension.
func checkFetchReq(t *testing.T, req []byte, dim int, sub int64, caching bool) {
	t.Helper()
	plain, gotSub, gotCaching, err := splitFetchReq(req, dim)
	if err != nil {
		t.Fatalf("well-formed request refused: %v", err)
	}
	if len(plain) != fetchReqSize(dim) || gotCaching != caching || (caching && int64(gotSub) != sub) {
		t.Fatalf("split into %d plain bytes, subscriber %d (caching %v), want %d bytes, %d (%v)",
			len(plain), gotSub, gotCaching, fetchReqSize(dim), sub, caching)
	}
	if r, err := transport.Decode(plain, walkFetchRangeReq); err != nil || len(r.Q) != dim {
		t.Fatalf("plain form decoded to %d coordinates (%v), want %d", len(r.Q), err, dim)
	}
	for cut := 0; cut < len(req); cut++ {
		p, _, c, err := splitFetchReq(req[:cut], dim)
		if err == nil && !(caching && cut == len(plain) && !c && len(p) == cut) {
			t.Fatalf("strict prefix of %d bytes (of %d) accepted", cut, len(req))
		}
	}
	if _, _, _, err := splitFetchReq(append(bytes.Clone(req), 0), dim); err == nil {
		t.Fatal("request with a trailing byte accepted")
	}
	// A caching request is as long as a plain one of a coordinate more, and a
	// plain one as a caching one of a coordinate fewer: the count is what
	// refuses them, whichever way the holder's dimension is off.
	for _, wrong := range []int{dim - 1, dim + 1} {
		if wrong < 0 {
			continue
		}
		if _, _, _, err := splitFetchReq(req, wrong); err == nil {
			t.Fatalf("request of %d coordinates accepted by a holder of %d", dim, wrong)
		}
		if _, _, _, err := splitFetchReq(withCount(req, uint32(wrong)), dim); err == nil {
			t.Fatalf("float count %d accepted on a request carrying %d", wrong, dim)
		}
	}
}

func FuzzFetchReqRoundTrip(f *testing.F) {
	f.Add([]byte{}, 0.5, int64(3), int64(7))
	f.Add(bytes.Repeat([]byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0}, 32), 1e-9, int64(1), int64(-1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, -0.0, int64(1<<40), int64(1<<62))
	f.Fuzz(func(t *testing.T, raw []byte, eps float64, k, sub int64) {
		q := make([]float64, len(raw)/8)
		for i := range q {
			q[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
		for _, plain := range [][]byte{encodeFetchRangeReq(q, eps), encodeFetchKNNReq(q, int(k))} {
			checkFetchReq(t, plain, len(q), 0, false)
			checkFetchReq(t, appendSubscriber(bytes.Clone(plain), int(sub)), len(q), sub, true)
		}
		// Both codecs give back what went in, bit for bit.
		r, err := transport.Decode(encodeFetchRangeReq(q, eps), walkFetchRangeReq)
		if err != nil || len(r.Q) != len(q) || math.Float64bits(r.Eps) != math.Float64bits(eps) {
			t.Fatalf("fetch_range round trip: %d coordinates, eps %x (%v)", len(r.Q), math.Float64bits(r.Eps), err)
		}
		rk, err := transport.Decode(encodeFetchKNNReq(q, int(k)), walkFetchKNNReq)
		if err != nil || len(rk.Q) != len(q) || int64(rk.K) != k {
			t.Fatalf("fetch_knn round trip: %d coordinates, k %d (%v)", len(rk.Q), rk.K, err)
		}
		for i := range q {
			if math.Float64bits(r.Q[i]) != math.Float64bits(q[i]) || math.Float64bits(rk.Q[i]) != math.Float64bits(q[i]) {
				t.Fatalf("coordinate %d changed across the round trip", i)
			}
		}
	})
}

// TestInvalReqEmptyListIsDropAll pins the one inval_fetch no publish sends —
// a holder id and no items — as decodable, distinct from any real one, and
// read by the receiver as "drop every slot of this holder", and the bytes of
// every answer that held one.
func TestInvalReqEmptyListIsDropAll(t *testing.T) {
	r, err := transport.Decode(encodeInvalReq(9, nil), walkInvalReq)
	if err != nil || r.Holder != 9 || len(r.Items) != 0 {
		t.Fatalf("empty inval_fetch decoded to holder %d, %d items (%v)", r.Holder, len(r.Items), err)
	}
	if r, err := transport.Decode(encodeInvalReq(9, [][]float64{{1, 2}}), walkInvalReq); err != nil || len(r.Items) != 1 {
		t.Fatalf("one-item inval_fetch decoded to %d items (%v)", len(r.Items), err)
	}

	n := &Node{memo: answerMemo{entries: map[string]answerEntry{
		"r-both":  {slots: []answerSlot{{peer: 9, tail: 1}, {peer: 4}, {peer: 9, tail: 2}}, resp: []byte{1}},
		"r-other": {slots: []answerSlot{{peer: 4}}, resp: []byte{1}},
	}, flight: map[int]flight{9: {n: 1}}}}
	n.invalidateFetch(9, nil)
	both, other := n.memo.entries["r-both"], n.memo.entries["r-other"]
	if len(both.slots) != 1 || both.slots[0].peer != 4 || both.resp != nil || len(other.slots) != 1 || other.resp == nil || n.memo.flight[9].gen != 1 {
		t.Errorf("drop-all left slots %v and bytes %v through the holder, slots %v and bytes %v elsewhere, in-flight generation %d; want [4], none, [4], kept, 1",
			both.slots, both.resp != nil, other.slots, other.resp != nil, n.memo.flight[9].gen)
	}
}

// FuzzNodeHandle is the handler-level sibling of the codec targets above: a
// body that decodes can still name a level, a key length, a k, a radius or a
// subscriber the node has nothing for, and no transport recovers a handler
// panic. Every method a node serves but the membership layer's must answer or
// refuse whatever bytes arrive. The node keeps its caches, so query requests
// reach the answer memo as raw bytes. The cluster is shared by all inputs, so
// an accepted publish, a registered directory line or a memoized answer stays
// for the next.
func FuzzNodeHandle(f *testing.F) {
	cl := startProbeCluster(f, 4, Tuning{CacheViews: true})
	nd := cl.Nodes[0]
	q := make([]float64, nd.cfg.Dim)
	nan, inf := math.NaN(), math.Inf(1)
	nanKey := append([]float64{nan}, q[1:]...)
	targets := []struct {
		method string
		seeds  [][]byte
	}{
		{methodRange, [][]byte{
			encodeRangeReq(q, 0.5, core.RangeOptions{}),
			encodeRangeReq(q, nan, core.RangeOptions{}),
			encodeRangeReq(q, inf, core.RangeOptions{MaxPeers: -1}),
			encodeRangeReq(nanKey, 0.5, core.RangeOptions{MaxPeers: 1}),
			encodeRangeReq(q[:1], 0.5, core.RangeOptions{}),
		}},
		{methodKNN, [][]byte{
			encodeKNNReq(q, 3, core.KNNOptions{}),
			encodeKNNReq(q, 1<<40, core.KNNOptions{}),
			encodeKNNReq(nanKey, 3, core.KNNOptions{C: nan}),
			encodeKNNReq(q, 3, core.KNNOptions{C: -1, MaxPeers: -5}),
			encodeKNNReq(q, 2, core.KNNOptions{C: inf}),
			encodeKNNReq(q, 0, core.KNNOptions{}),
		}},
		{methodCanSearch, [][]byte{
			searchReqSeed(), // level 1's key is one coordinate too long
			encodeSearchReq([]searchReq{{Level: 1, Optional: true}}),
			encodeSearchReq([]searchReq{{Level: 0, Key: []float64{0.5}, Radius: 0.1}, {Level: 2}}),
			encodeSearchReq([]searchReq{{Level: 2, Key: zoneCenter(nd, 2), Radius: 0.3, Optional: true}}),
		}},
		{methodFetchRange, [][]byte{encodeFetchRangeReq(q, 0.5), appendSubscriber(encodeFetchRangeReq(q, 0.5), 1), encodeFetchRangeReq(q[:1], 0.5),
			encodeFetchRangeReq(q, -0.5), appendSubscriber(encodeFetchRangeReq(q, nan), 1)}},
		// A k below 1 is refused before its line reaches the directory, even
		// for a subscriber the node can call back; k = 3 opens a line the
		// publish seeds below then sweep.
		{methodFetchKNN, [][]byte{encodeFetchKNNReq(q, 3), appendSubscriber(encodeFetchKNNReq(q, 0), 1), appendSubscriber(encodeFetchKNNReq(q, -1), 1<<40), encodeFetchKNNReq(nil, 1<<62),
			encodeFetchKNNReq(q, -3)}},
		{methodFetchInval, [][]byte{encodeInvalReq(1, nil), encodeInvalReq(1, [][]float64{q, q[:1], nil})}},
		{methodPublish, [][]byte{encodePublishReq(7000, q), encodePublishReq(-1, q[:1])}},
	}
	for m, tg := range targets {
		for _, b := range tg.seeds {
			f.Add(uint8(m), b)
		}
		f.Add(uint8(m), []byte{})
	}
	f.Fuzz(func(t *testing.T, m uint8, body []byte) {
		method := targets[int(m)%len(targets)].method
		resp, err := nd.handle(context.Background(), transport.Request{Method: method, Body: body})
		if err != nil && resp.Body != nil {
			t.Fatalf("%s: refused (%v) with a %d-byte answer", method, err, len(resp.Body))
		}
	})
}
