package route

import (
	"encoding/binary"
	"math"
	"testing"
)

// checkIDSet replays adds and lookups against a map, failing on the first
// disagreement. It checks the load bound after every add and, at every
// growth, that each id added so far survived the rehash.
func checkIDSet(t *testing.T, s *idSet, ops []int, lookups []int) {
	t.Helper()
	want := map[int]bool{}
	for i, id := range ops {
		size := len(s.slots)
		if got := s.add(id); got != !want[id] {
			t.Fatalf("add(%d) = %v, want %v", id, got, !want[id])
		}
		want[id] = true
		if 2*s.n > len(s.slots) {
			t.Fatalf("after add(%d): %d ids in %d slots, above half", id, s.n, len(s.slots))
		}
		if len(s.slots) != size {
			for _, prev := range ops[:i+1] {
				if !s.has(prev) {
					t.Fatalf("growth to %d slots lost id %d", len(s.slots), prev)
				}
			}
		}
	}
	for _, id := range append(append([]int{}, ops...), lookups...) {
		if got := s.has(id); got != want[id] {
			t.Fatalf("has(%d) = %v, want %v", id, got, want[id])
		}
	}
}

// TestIDSet covers the key shapes the machines store — dense simulator
// seqs, the streamed records' 1<<40-offset seqs, negative ids, multiples of
// every table size (one probe chain if the hash kept low bits) and the
// free-slot marker's own value (0), with and without it — each across every
// growth boundary up to 2^12 ids.
func TestIDSet(t *testing.T) {
	seqs := func(n int, f func(i int) int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	const n = 1 << 12
	streamSeq := func(i int) int { // peer, level, epoch, idx packed as core does
		peer, level, epoch, idx := i/64, i%8, (i/8)%4, i%1024
		return 1<<40 + (peer*8+level)<<20 + epoch*1024 + idx
	}
	cases := []struct {
		name    string
		ops     []int
		lookups []int
	}{
		{"empty", nil, []int{0, -1, math.MinInt, math.MaxInt}},
		{"dense", seqs(n, func(i int) int { return i }), []int{-1, n, n + 1}},
		{"dense-repeats", seqs(n, func(i int) int { return i / 3 }), []int{n}},
		{"stream-seq", seqs(n, streamSeq), []int{1 << 40, 1<<40 - 1, 0}},
		{"negative", seqs(n, func(i int) int { return -i - 1 }), []int{0, 1, -n - 1}},
		{"table-multiples", seqs(n, func(i int) int { return i << 13 }), []int{1, 1 << 12, 3 << 12}},
		{"high-bits", seqs(n, func(i int) int { return i << 50 }), []int{1, 1 << 49}},
		{"marker", []int{0, 1, 0, math.MinInt, math.MaxInt, -1}, []int{2, -2}},
		{"dense-from-one", seqs(n, func(i int) int { return i + 1 }), []int{0, -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var zero idSet
			checkIDSet(t, &zero, c.ops, c.lookups)
			for _, hint := range []int{0, 1, 4, 5, 64, n} {
				s := newIDSet(hint)
				if 2*hint > len(s.slots) {
					t.Fatalf("newIDSet(%d) has %d slots: it would grow before %d ids", hint, len(s.slots), hint)
				}
				checkIDSet(t, &s, c.ops, c.lookups)
			}
		})
	}
}

// FuzzIDSet runs fuzzer-chosen add/has sequences against a map. Each 9-byte
// group is one operation: the low bit of the first byte picks add or has,
// and the next eight bytes are the id (any int64, so negative ids, the
// free-slot marker and table-size multiples all occur); the hint sizes the
// first table.
func FuzzIDSet(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0x01, 0, 0, 0, 0, 8, 0, 0, 0, 0x01, 0, 0, 0})
	f.Fuzz(func(t *testing.T, hint uint8, ops []byte) {
		s := newIDSet(int(hint))
		want := map[int]bool{}
		for ; len(ops) >= 9; ops = ops[9:] {
			id := int(int64(binary.LittleEndian.Uint64(ops[1:9])))
			if ops[0]&1 == 0 {
				if got := s.add(id); got != !want[id] {
					t.Fatalf("add(%d) = %v, want %v", id, got, !want[id])
				}
				want[id] = true
			} else if got := s.has(id); got != want[id] {
				t.Fatalf("has(%d) = %v, want %v", id, got, want[id])
			}
			if 2*s.n > len(s.slots) {
				t.Fatalf("%d ids in %d slots, above half", s.n, len(s.slots))
			}
		}
		for id := range want {
			if !s.has(id) {
				t.Fatalf("has(%d) = false after add", id)
			}
		}
	})
}
