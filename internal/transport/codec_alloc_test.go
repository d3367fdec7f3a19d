package transport

import (
	"fmt"
	"testing"
)

// Allocation fences for the zero-copy decode path. The arena variants exist
// so a message carrying hundreds of short vectors costs a handful of block
// allocations instead of one per vector; these tests pin that ratio so a
// refactor cannot silently reintroduce per-vector garbage. AllocsPerRun
// counts are exact for a fixed code path, so the bounds are tight.

// manyVectorMessage encodes vectors short vectors of dim floats each — the
// shape of a can_search view's record list.
func manyVectorMessage(vectors, dim int) []byte {
	var e Encoder
	for i := 0; i < vectors; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = float64(i*dim + d)
		}
		e.Floats(v)
	}
	return e.Bytes()
}

func TestFloatsSharedAllocFence(t *testing.T) {
	const vectors, dim = 200, 8
	msg := manyVectorMessage(vectors, dim)

	// Arena decode: the decoder itself plus ceil(200*8/arenaBlock) blocks,
	// where a slice per vector would take 200.
	shared := testing.AllocsPerRun(50, func() {
		d := NewDecoder(msg)
		for i := 0; i < vectors; i++ {
			if d.FloatsShared() == nil {
				t.Fatal("short decode")
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode of %d vectors: %.0f allocs", vectors, shared)
	if shared > 4 {
		t.Errorf("FloatsShared decode of %d vectors took %.0f allocs, want <= 4 (decoder + arena blocks)", vectors, shared)
	}
}

func TestIntsSharedAllocFence(t *testing.T) {
	const lists, n = 100, 10
	walk := func(c *Coder, ls *[][]int) {
		l := List(c, ls, 4)
		for i := range l {
			c.Ints(&l[i])
		}
	}
	v := make([][]int, lists)
	for i := range v {
		v[i] = make([]int, n)
		for j := range v[i] {
			v[i][j] = i*n + j
		}
	}
	msg := Encode(&v, walk)

	shared := testing.AllocsPerRun(50, func() {
		if got, err := Decode(msg, walk); err != nil || len(got) != lists || len(got[lists-1]) != n {
			t.Fatalf("decoded %d lists (%v)", len(got), err)
		}
	})
	// The list of lists, then arena blocks: one slice per list would take 100.
	if shared > 4 {
		t.Errorf("Ints decode of %d lists took %.0f allocs, want <= 4", lists, shared)
	}
}

// TestArenaBlockBoundedBySmallMessage pins the retention contract: decoding a
// small message must not allocate an arenaBlock-sized block (a retained slice
// would pin ~32KiB for a few floats), and an oversized sequence gets its own
// exact allocation rather than poisoning the arena.
func TestArenaBlockBoundedBySmallMessage(t *testing.T) {
	var e Encoder
	e.Floats([]float64{1, 2, 3})
	msg := e.Bytes()
	d := NewDecoder(msg)
	v := d.FloatsShared()
	if len(v) != 3 {
		t.Fatalf("decoded %d floats, want 3", len(v))
	}
	if c := cap(d.farena); c > len(msg)/8+1 {
		t.Errorf("small message grew a %d-cap arena block, want <= message-bounded %d", c, len(msg)/8+1)
	}

	big := make([]float64, arenaBlock+1)
	var e2 Encoder
	e2.Floats(big)
	d2 := NewDecoder(e2.Bytes())
	out := d2.FloatsShared()
	if len(out) != arenaBlock+1 {
		t.Fatalf("decoded %d floats, want %d", len(out), arenaBlock+1)
	}
	if d2.farena != nil {
		t.Errorf("oversized sequence leaked into the arena (cap %d)", cap(d2.farena))
	}
}

// TestCountRejectsImplausibleLength pins the fence the fuzzer motivated: a
// count whose minimum encoding exceeds the remaining payload must trip the
// sticky error before anything is allocated.
func TestCountRejectsImplausibleLength(t *testing.T) {
	var e Encoder
	e.U32(1 << 28) // claims ~268M elements in a 4-byte message
	d := NewDecoder(e.Bytes())
	if n := d.Count(16); n != 0 {
		t.Fatalf("Count returned %d for an implausible prefix", n)
	}
	if d.err == nil {
		t.Fatal("Count accepted a length exceeding the message")
	}
	for _, minElem := range []int{1, 8, 64} {
		var ok Encoder
		ok.U32(3)
		ok.b = append(ok.b, make([]byte, 3*minElem)...)
		dd := NewDecoder(ok.Bytes())
		if n := dd.Count(minElem); n != 3 || dd.err != nil {
			t.Fatalf("Count(minElem=%d) = %d, err %v; want 3, nil", minElem, n, dd.err)
		}
	}
}

func BenchmarkFloatsSharedDecode(b *testing.B) {
	for _, vectors := range []int{32, 256} {
		msg := manyVectorMessage(vectors, 8)
		b.Run(fmt.Sprintf("vectors=%d", vectors), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(msg)))
			for i := 0; i < b.N; i++ {
				d := NewDecoder(msg)
				for j := 0; j < vectors; j++ {
					d.FloatsShared()
				}
			}
		})
	}
}
