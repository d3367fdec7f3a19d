package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// Tests of the delta-coded id sequence (Coder.IntsDelta /
// Decoder.IntsDeltaShared), the one variable-width format on the wire.

// deltaBytes encodes one delta-coded id sequence.
func deltaBytes(ids []int) []byte {
	return Encode(&ids, func(c *Coder, v *[]int) { c.IntsDelta(v) })
}

// deltaMsg is a message with two id sequences between fixed-width fields.
type deltaMsg struct {
	lead   uint8
	a, b   []int
	trails int
}

func walkDeltaMsg(c *Coder, m *deltaMsg) {
	c.U8(&m.lead)
	c.IntsDelta(&m.a)
	c.IntsDelta(&m.b)
	c.Int(&m.trails)
}

func TestIntsDeltaRoundTrip(t *testing.T) {
	dense := make([]int, 3*arenaBlock) // beyond a block: a dedicated allocation
	for i := range dense {
		dense[i] = 2*i + i%2
	}
	cases := map[string][]int{
		"empty":      nil,
		"single":     {42},
		"ascending":  {1, 2, 3, 70, 71, 1 << 28, 1<<28 + 1},
		"descending": {9, 7, 7, 2, -5},
		"unsorted":   {5, -3, 1 << 40, 0, -1 << 40, 12},
		"duplicates": {4, 4, 4, 4},
		"max":        {math.MaxInt},
		"min":        {math.MinInt},
		"wide-steps": {math.MinInt / 2, math.MaxInt / 2, math.MinInt / 2},
		"dense":      dense,
	}
	for name, ids := range cases {
		// The second sequence restarts from zero.
		body := Encode(&deltaMsg{lead: 9, a: ids, b: ids, trails: -1}, walkDeltaMsg)
		got, err := Decode(body, walkDeltaMsg)
		if err != nil || got.lead != 9 || got.trails != -1 {
			t.Fatalf("%s: fixed fields lost: %+v (%v)", name, got, err)
		}
		for pass, seq := range [][]int{got.a, got.b} {
			if !slices.Equal(seq, ids) || (len(ids) == 0 && seq != nil) {
				t.Errorf("%s: sequence %d decoded to %d ids, want %d", name, pass, len(seq), len(ids))
			}
		}
		if len(body) != 1+Size(&ids, func(c *Coder, v *[]int) { c.IntsDelta(v) })*2+8 || cap(body) != len(body) {
			t.Errorf("%s: sized %d bytes, encoded %d", name, cap(body), len(body))
		}
	}

	if perID := float64(len(deltaBytes(dense))) / float64(len(dense)); perID > 1.01 {
		t.Errorf("dense ascending run costs %.2f B/id, want ~1", perID)
	}
}

func TestIntsDeltaRejectsCorruptInput(t *testing.T) {
	seq := func(count uint32, body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, count), body...)
	}
	zigzag := func(d int64) []byte {
		return binary.AppendUvarint(nil, uint64(d<<1)^uint64(d>>63))
	}
	apart := deltaBytes([]int{math.MinInt, math.MaxInt}) // a step no int64 holds
	cases := map[string][]byte{
		"count-exceeds-bytes": seq(5, 1, 1, 1, 1),
		"huge-count":          seq(1<<31, 1),
		"missing-prefix":      {0, 0},
		"truncated-varint":    seq(2, 2, 0x80),
		"overlong-varint":     seq(1, bytes.Repeat([]byte{0x80}, 10)...),
		// 0 padded to two bytes: IntsDelta writes it as one, so the body would
		// not re-encode to itself.
		"non-minimal-varint":  seq(1, 0x80, 0x00),
		"non-minimal-step":    seq(2, 2, 0x82, 0x80, 0x00),
		"sum-overflows-up":    seq(2, append(zigzag(math.MaxInt64), zigzag(1)...)...),
		"sum-overflows-down":  seq(2, append(zigzag(math.MinInt64), zigzag(-1)...)...),
		"steps-too-far-apart": apart,
	}
	for name, msg := range cases {
		d := NewDecoder(msg)
		if got := d.IntsDeltaShared(); got != nil || d.err == nil {
			t.Errorf("%s: decoded %v, err %v; want nil and an error", name, got, d.err)
		}
		if d.Int() != 0 || d.IntsDeltaShared() != nil || d.Finish() == nil {
			t.Errorf("%s: the error did not stick", name)
		}
		if cap(d.iarena) > len(msg) {
			t.Errorf("%s: a %d-byte sequence grew a %d-int arena", name, len(msg), cap(d.iarena))
		}
	}
}

func TestIntsDeltaSharedAllocFence(t *testing.T) {
	const lists, n = 100, 10
	var msg []byte
	for i := 0; i < lists; i++ {
		v := make([]int, n)
		for j := range v {
			v[j] = i*n + j
		}
		msg = append(msg, deltaBytes(v)...)
	}
	allocs := testing.AllocsPerRun(50, func() {
		d := NewDecoder(msg)
		for i := 0; i < lists; i++ {
			if d.IntsDeltaShared() == nil {
				t.Fatal("short decode")
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("IntsDeltaShared decode of %d lists took %.0f allocs, want <= 4", lists, allocs)
	}
}

// stepsFit reports whether every element is within int64 of the one before
// it (the first of zero) — the sequences IntsDelta promises to carry.
func stepsFit(ids []int) bool {
	prev := 0
	for _, x := range ids {
		// x-prev overflows when the operands' signs differ and the
		// difference has lost the sign of x.
		if d := x - prev; (x^prev)&(x^d) < 0 {
			return false
		}
		prev = x
	}
	return true
}

// FuzzIntsDeltaRoundTrip reads the input twice. As a message: the decoder
// either rejects it with a sticky error, or returns no more ids than the
// message has bytes, and re-encoding them is a fixed point. As a list of
// 8-byte ids: encode then decode returns the list, or — when two neighbours
// are more than an int64 apart — an error, never different ids.
func FuzzIntsDeltaRoundTrip(f *testing.F) {
	for _, ids := range [][]int{nil, {1, 2, 3}, {1 << 28, 5, -9}, {math.MinInt, math.MaxInt}} {
		f.Add(deltaBytes(ids))
	}
	f.Add([]byte{0, 0, 0, 2, 0x80, 0x80})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := NewDecoder(raw)
		ids := d.IntsDeltaShared()
		if d.err != nil {
			if ids != nil || d.IntsDeltaShared() != nil || d.err == nil {
				t.Fatalf("rejected input still decoded: %v", ids)
			}
		} else {
			if len(ids) > len(raw) || cap(d.iarena) > max(len(raw), len(ids)) {
				t.Fatalf("%d-byte message decoded to %d ids in a %d-int arena", len(raw), len(ids), cap(d.iarena))
			}
			b1 := deltaBytes(ids)
			again := NewDecoder(b1).IntsDeltaShared()
			if !slices.Equal(again, ids) || !bytes.Equal(b1, deltaBytes(again)) {
				t.Fatalf("decoded ids do not survive re-encoding: %v vs %v", ids, again)
			}
		}

		ids = make([]int, len(raw)/8)
		for i := range ids {
			ids[i] = int(int64(binary.BigEndian.Uint64(raw[8*i:])))
		}
		d = NewDecoder(deltaBytes(ids))
		got := d.IntsDeltaShared()
		if err := d.Finish(); stepsFit(ids) {
			if err != nil || !slices.Equal(got, ids) {
				t.Fatalf("round trip of %v gave %v, err %v", ids, got, err)
			}
		} else if err == nil || got != nil {
			t.Fatalf("ids more than an int64 apart decoded to %v without error", got)
		}
	})
}
