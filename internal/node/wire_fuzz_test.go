package node

import (
	"bytes"
	"encoding/binary"
	"testing"
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
		{Level: 2, Full: true},
	})
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

func TestSearchWireRejectsCorruptPrefixes(t *testing.T) {
	req, resp := searchReqSeed(), searchRespSeed(t)
	if _, err := decodeSearchReq(req); err != nil {
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
	} {
		if reqs, err := decodeSearchReq(b); err == nil {
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
		if _, err := decodeSearchSlot(slots[0]); err == nil {
			t.Error("a view cut one byte short decoded")
		}
	}
	if _, err := decodeSearchSlot(nil); err == nil {
		t.Error("a skipped slot decoded as a view")
	}
}

func FuzzSearchReqRoundTrip(f *testing.F) {
	seed := searchReqSeed()
	f.Add(seed)
	f.Add(withCount(seed, 1<<31))
	f.Add(append(bytes.Clone(seed), 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		reqs, err := decodeSearchReq(raw)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if len(reqs)*searchReqMinSize > len(raw) {
			t.Fatalf("%d spheres decoded from %d bytes", len(reqs), len(raw))
		}
		b1 := encodeSearchReq(reqs)
		reqs2, err := decodeSearchReq(b1)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if b2 := encodeSearchReq(reqs2); !bytes.Equal(b1, b2) {
			t.Fatalf("can_search request round-trip not a fixed point:\nfirst:  %x\nsecond: %x", b1, b2)
		}
		if len(reqs2) != len(reqs) {
			t.Fatalf("%d spheres became %d", len(reqs), len(reqs2))
		}
	})
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
			v, err := decodeSearchSlot(s)
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
			v, err := decodeSearchSlot(s)
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
