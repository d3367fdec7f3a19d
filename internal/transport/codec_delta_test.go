package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// Tests of the delta-coded id sequence (Encoder.IntsDelta /
// Decoder.IntsDeltaShared), the one variable-width format on the wire.

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
		var e Encoder
		e.U8(9)
		e.IntsDelta(ids)
		e.IntsDelta(ids) // a second sequence restarts from zero
		e.Int(-1)
		d := NewDecoder(e.Bytes())
		if d.U8() != 9 {
			t.Fatalf("%s: leading field lost", name)
		}
		for pass := 0; pass < 2; pass++ {
			if got := d.IntsDeltaShared(); !slices.Equal(got, ids) || (len(ids) == 0 && got != nil) {
				t.Errorf("%s: sequence %d decoded to %d ids, want %d (err %v)", name, pass, len(got), len(ids), d.Err())
			}
		}
		if d.Int() != -1 || d.Finish() != nil {
			t.Errorf("%s: trailing field lost or bytes left over: %v", name, d.Finish())
		}
	}

	var e Encoder
	e.IntsDelta(dense)
	if perID := float64(len(e.Bytes())) / float64(len(dense)); perID > 1.01 {
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
	var apart Encoder
	apart.IntsDelta([]int{math.MinInt, math.MaxInt}) // a step no int64 holds
	cases := map[string][]byte{
		"count-exceeds-bytes": seq(5, 1, 1, 1, 1),
		"huge-count":          seq(1<<31, 1),
		"missing-prefix":      {0, 0},
		"truncated-varint":    seq(2, 2, 0x80),
		"overlong-varint":     seq(1, bytes.Repeat([]byte{0x80}, 10)...),
		"sum-overflows-up":    seq(2, append(zigzag(math.MaxInt64), zigzag(1)...)...),
		"sum-overflows-down":  seq(2, append(zigzag(math.MinInt64), zigzag(-1)...)...),
		"steps-too-far-apart": apart.Bytes(),
	}
	for name, msg := range cases {
		d := NewDecoder(msg)
		if got := d.IntsDeltaShared(); got != nil || d.Err() == nil {
			t.Errorf("%s: decoded %v, err %v; want nil and an error", name, got, d.Err())
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
	var e Encoder
	for i := 0; i < lists; i++ {
		v := make([]int, n)
		for j := range v {
			v[j] = i*n + j
		}
		e.IntsDelta(v)
	}
	msg := e.Bytes()
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
		var e Encoder
		e.IntsDelta(ids)
		f.Add(e.Bytes())
	}
	f.Add([]byte{0, 0, 0, 2, 0x80, 0x80})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := NewDecoder(raw)
		ids := d.IntsDeltaShared()
		if d.Err() != nil {
			if ids != nil || d.IntsDeltaShared() != nil || d.Err() == nil {
				t.Fatalf("rejected input still decoded: %v", ids)
			}
		} else {
			if len(ids) > len(raw) || cap(d.iarena) > max(len(raw), len(ids)) {
				t.Fatalf("%d-byte message decoded to %d ids in a %d-int arena", len(raw), len(ids), cap(d.iarena))
			}
			var e1, e2 Encoder
			e1.IntsDelta(ids)
			again := NewDecoder(e1.Bytes()).IntsDeltaShared()
			e2.IntsDelta(again)
			if !slices.Equal(again, ids) || !bytes.Equal(e1.Bytes(), e2.Bytes()) {
				t.Fatalf("decoded ids do not survive re-encoding: %v vs %v", ids, again)
			}
		}

		ids = make([]int, len(raw)/8)
		for i := range ids {
			ids[i] = int(int64(binary.BigEndian.Uint64(raw[8*i:])))
		}
		var e Encoder
		e.IntsDelta(ids)
		d = NewDecoder(e.Bytes())
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
