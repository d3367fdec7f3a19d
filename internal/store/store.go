// Package store is the flat item store of the serving path: one id column
// plus the item vectors coalesced into fixed-size row blocks, replacing the
// pointer-rich `[]int` + `[][]float64` parallel slices that made million-item
// nodes GC-bound. The layout extends the PR 2 coalesced-buffer idea (the
// k-means kernel's flat state) to the long-lived stores read by
// core.LocalRange/LocalKNN, core.System's peers, and node.Node.
//
// Two properties matter to the callers:
//
//   - Stable handles: Vec(i) returns a subslice of a block, and appends never
//     move existing rows (a full block is immutable; growth allocates a new
//     block). Scans and decode paths may hold row views across appends.
//   - Explicit copy points: Append copies the incoming vector into the arena.
//     That is THE copy point of the zero-copy decode path — wire decoders
//     hand out arena-backed views of the frame (transport.Decoder.FloatsShared)
//     and the store is where retained item data becomes owned memory.
//
// A Store is not safe for concurrent mutation; readers and the single writer
// are serialized by the owner (node.Node's mu, the single-threaded simulator).
// Concurrent readers are fine, including the lazy scan-index build they may
// trigger (ScanGroups).
package store

import (
	"fmt"
	"sync/atomic"
)

// BlockRows is the number of rows per arena block. Blocks hold
// BlockRows*dim float64s contiguously; at dim 32 a block is 256 KiB.
const BlockRows = 1024

// Store holds items as a flat id column plus row blocks of dim-wide vectors.
type Store struct {
	dim    int
	ids    []int
	blocks [][]float64 // each block has capacity BlockRows*dim floats
	n      int

	// The scan index (index.go): derived from the rows, replaced wholesale,
	// and the one part of a Store that concurrent readers may write.
	index    atomic.Pointer[scanIndex]
	building atomic.Bool
}

// New returns an empty store for dim-wide vectors.
func New(dim int) *Store {
	if dim < 1 {
		panic(fmt.Sprintf("store: dim must be >= 1, got %d", dim))
	}
	return &Store{dim: dim}
}

// FromRows builds a store from parallel id/vector slices, copying the vectors
// into the arena.
func FromRows(dim int, ids []int, rows [][]float64) *Store {
	s := New(dim)
	if len(ids) != len(rows) {
		panic(fmt.Sprintf("store: %d ids for %d rows", len(ids), len(rows)))
	}
	for i, r := range rows {
		s.Append(ids[i], r)
	}
	return s
}

// Dim returns the vector width.
func (s *Store) Dim() int { return s.dim }

// Len returns the number of stored items.
func (s *Store) Len() int { return s.n }

// ID returns item i's global id.
func (s *Store) ID(i int) int { return s.ids[i] }

// Vec returns a view of item i's vector. The view is stable: appends never
// move existing rows. Callers must treat it as read-only.
func (s *Store) Vec(i int) []float64 {
	b := s.blocks[i/BlockRows]
	off := (i % BlockRows) * s.dim
	return b[off : off+s.dim : off+s.dim]
}

// Append copies (id, v) into the store — the copy point where wire-decoded
// views become owned memory. Existing row views stay valid.
func (s *Store) Append(id int, v []float64) {
	if len(v) != s.dim {
		panic(fmt.Sprintf("store: vector dim %d, want %d", len(v), s.dim))
	}
	bi := s.n / BlockRows
	if bi == len(s.blocks) {
		s.blocks = append(s.blocks, make([]float64, 0, BlockRows*s.dim))
	}
	s.blocks[bi] = append(s.blocks[bi], v...)
	s.ids = append(s.ids, id)
	s.n++
}

// IDs returns the id column. It is a view; callers must not mutate it and
// must not retain it across appends (the column may be reallocated).
func (s *Store) IDs() []int { return s.ids }

// Rows materializes the outer slice of row views (one allocation). Used to
// feed batch kernels (wavelet.SubspaceMatrices) that consume [][]float64.
func (s *Store) Rows() [][]float64 {
	out := make([][]float64, s.n)
	for i := range out {
		out[i] = s.Vec(i)
	}
	return out
}

// Clone returns an independent store over the same rows. Full blocks are
// shared (they are immutable — appends only ever extend the last, partial
// block); the partial tail block and the id column are copied, so appends to
// either store never reach the other.
func (s *Store) Clone() *Store {
	c := &Store{dim: s.dim, n: s.n}
	c.ids = append([]int(nil), s.ids...)
	if len(s.blocks) > 0 {
		c.blocks = append([][]float64(nil), s.blocks...)
		last := s.blocks[len(s.blocks)-1]
		if len(last) < cap(last) {
			cp := make([]float64, len(last), BlockRows*s.dim)
			copy(cp, last)
			c.blocks[len(c.blocks)-1] = cp
		}
	}
	// The index names row numbers of a prefix both stores share.
	c.index.Store(s.index.Load())
	return c
}

// HeapBytes estimates the store's heap footprint: the id column, the
// allocated block capacity, and the scan index once a scan has built one. It
// deliberately counts capacity, not length — that is what the process
// actually holds.
func (s *Store) HeapBytes() int {
	bytes := cap(s.ids)*8 + s.indexBytes()
	for _, b := range s.blocks {
		bytes += cap(b) * 8
	}
	return bytes
}
