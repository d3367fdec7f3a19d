package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"hyperm/internal/store"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// LocalRange is the second query phase on a contacted peer: an exact scan of
// its flat item store, returning the ids of every item within eps of q.
// Exported so serving nodes (internal/node) answer fetch RPCs with the exact
// same rule as the in-process simulation. An indexed store (store.IndexMinRows
// rows or more) answers in ascending id order, so the answer delta-codes to
// about a byte per id and Engine.RangeQuery merges instead of sorting; a
// smaller store answers in row order.
func LocalRange(q []float64, eps float64, st *store.Store) []int {
	eps2 := eps * eps
	// Dist2Capped exits on ">= bound"; membership is "<= eps2". Capping one
	// ulp above eps2 makes the early exit mean "> eps2", so a row sitting
	// exactly on the boundary still gets its full distance and is kept.
	bound := math.Nextafter(eps2, math.Inf(1))
	ids := st.IDs()
	groups, byID := st.ScanIndex()
	indexed := len(byID)
	if indexed == 0 {
		var out []int
		for i := range ids {
			if vec.Dist2Capped(q, st.Vec(i), bound) <= eps2 {
				out = append(out, ids[i])
			}
		}
		return out
	}

	sc := rangeScratchPool.Get().(*rangeScratch)
	defer rangeScratchPool.Put(sc)
	words := (indexed + 63) / 64
	accepted, candidate := sc.bitmaps(words)
	// The radius the bounds reason with is derived from eps2, so that a
	// square that overflowed (or a NaN) disables them instead of disagreeing
	// with the per-row test.
	r := math.Sqrt(eps2)
	for gi := range groups {
		g := &groups[gi]
		// A member at distance m from the centroid, itself d from q, lies
		// between |d-m| and d+m from q. So Rows[:lo], nearer the centroid
		// than |d-r|, are all inside the ball when it reaches past the
		// centroid and all outside otherwise; Rows[hi:], farther from the
		// centroid than d+r, are all outside; only Rows[lo:hi] need their
		// distance. A NaN or infinite r keeps the whole group in the window.
		d := vec.Dist(q, g.Centroid)
		slack := boundSlack * (d + r)
		lo, hi := g.Window(math.Abs(d-r)-slack, d+r+slack)
		if r > d {
			for _, row := range g.Rows[:lo] {
				accepted[row>>6] |= 1 << (row & 63)
			}
		}
		for _, row := range g.Rows[lo:hi] {
			candidate[row>>6] |= 1 << (row & 63)
		}
	}
	// Candidates pay their distance in ascending row order, which reads the
	// store's blocks front to back instead of in centroid-distance order.
	hits := 0
	for w, word := range candidate {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if vec.Dist2Capped(q, st.Vec(w<<6|b), bound) <= eps2 {
				accepted[w] |= 1 << b
			}
		}
		hits += bits.OnesCount64(accepted[w])
	}
	// The tail is short (the index is rebuilt before it reaches an eighth of
	// the store), so it is sorted on its own and merged in.
	tail := sc.tail[:0]
	for i := indexed; i < len(ids); i++ {
		if vec.Dist2Capped(q, st.Vec(i), bound) <= eps2 {
			tail = append(tail, ids[i])
		}
	}
	sc.tail = tail
	if hits+len(tail) == 0 {
		return nil
	}
	slices.Sort(tail)

	// Every covered row appears once in byID, so walking it until all hits
	// are out emits them in id order with no branch on the hit bit: each step
	// writes the row's id at the cursor and advances the cursor by that bit.
	out := make([]int, hits+len(tail))
	n := 0
	for p := 0; n < hits; p++ {
		row := byID[p]
		out[n] = ids[row]
		n += int(accepted[row>>6] >> (row & 63) & 1)
	}
	// Merge the tail in from the back; out[:hits] is its own merge input.
	for i, j, k := hits-1, len(tail)-1, len(out)-1; j >= 0; k-- {
		if i >= 0 && out[i] > tail[j] {
			out[k] = out[i]
			i--
		} else {
			out[k] = tail[j]
			j--
		}
	}
	return out
}

// rangeScratch is LocalRange's per-call working memory, pooled: two bitmaps
// over the indexed row numbers and the tail's hits.
type rangeScratch struct {
	words []uint64
	tail  []int
}

var rangeScratchPool = sync.Pool{New: func() any { return new(rangeScratch) }}

// bitmaps returns two zeroed bitmaps of n words each.
func (sc *rangeScratch) bitmaps(n int) (accepted, candidate []uint64) {
	if cap(sc.words) < 2*n {
		sc.words = make([]uint64, 2*n)
	}
	w := sc.words[:2*n]
	clear(w)
	return w[:n:n], w[n:]
}

// LocalKNN returns the k locally stored items closest to q with their squared
// distances, ordered by ascending distance (ties by ascending id). Exported
// for serving nodes, like LocalRange.
func LocalKNN(q []float64, k int, st *store.Store) []ItemDist {
	ids := st.IDs()
	if k <= 0 || len(ids) == 0 {
		return nil
	}
	top := newTopK(min(k, len(ids)))
	groups, indexed := st.ScanGroups()
	// Nearest centroids first: they fill the heap with close rows, and every
	// later group is cut against that k-th distance.
	order := make([]groupDist, len(groups))
	for gi := range groups {
		order[gi] = groupDist{d: vec.Dist(q, groups[gi].Centroid), group: gi}
	}
	slices.SortFunc(order, func(a, b groupDist) int { return cmp.Compare(a.d, b.d) })
	for _, o := range order {
		g := &groups[o.group]
		// Only rows within the k-th distance r of q can still enter: by the
		// same bounds their centroid distance is within r of d. The window
		// is closed and widened by the slack, so ties are never cut.
		r := math.Sqrt(top.limit)
		slack := boundSlack * (o.d + r)
		lo, hi := g.Window(o.d-r-slack, o.d+r+slack)
		for _, row := range g.Rows[lo:hi] {
			if d := vec.Dist2Capped(q, st.Vec(int(row)), top.bound); d <= top.limit {
				top.offer(ids[row], d)
			}
		}
	}
	for i := indexed; i < len(ids); i++ {
		if d := vec.Dist2Capped(q, st.Vec(i), top.bound); d <= top.limit {
			top.offer(ids[i], d)
		}
	}
	return top.sorted()
}

type groupDist struct {
	d     float64
	group int
}

// boundSlack is the relative slack on the index bounds. Centroid distances,
// member distances and row distances each carry a few dim*2^-53 of rounding;
// a slack six orders of magnitude above that means a row is decided without
// its distance only when it is clear of the boundary, and any row near it
// takes the exact per-row path.
const boundSlack = 1e-9

// topK selects the k smallest (Dist2, ID) pairs of a stream: a max-heap whose
// root is the current k-th best, so a candidate is decided by one comparison
// against the root and most rows never touch the heap.
type topK struct {
	heap []ItemDist
	k    int
	// limit is the largest Dist2 that can still enter (+Inf until k items
	// are held, the root's afterwards); bound is one ulp above it — the
	// Dist2Capped cap under which "exit early" means "strictly farther than
	// the root", so equal-distance rows keep their exact value for the id
	// tie-break.
	limit, bound float64
}

func newTopK(k int) topK {
	return topK{heap: make([]ItemDist, 0, k), k: k, limit: math.Inf(1), bound: math.Inf(1)}
}

// after reports whether a orders after b: farther, or equally far with the
// larger id.
func after(a, b ItemDist) bool {
	return a.Dist2 > b.Dist2 || (a.Dist2 == b.Dist2 && a.ID > b.ID)
}

// offer considers one candidate with d <= limit.
func (t *topK) offer(id int, d float64) {
	c := ItemDist{ID: id, Dist2: d}
	h := t.heap
	if len(h) < t.k {
		h = append(h, c)
		t.heap = h
		for i := len(h) - 1; i > 0; { // sift up
			p := (i - 1) / 2
			if !after(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		if len(h) < t.k {
			return
		}
	} else {
		if after(c, h[0]) {
			return
		}
		h[0] = c
		siftDown(h, 0)
	}
	t.limit = h[0].Dist2
	t.bound = math.Nextafter(t.limit, math.Inf(1))
}

func siftDown(h []ItemDist, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && after(h[c+1], h[c]) {
			c++
		}
		if !after(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sorted empties the heap into ascending (Dist2, ID) order in place.
func (t *topK) sorted() []ItemDist {
	h := t.heap
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
	return h
}

// AbsorbInsert applies the local bookkeeping of a post-creation insert to a
// peer's published summaries: at every level the item joins the nearest
// published cluster, whose local Items count is bumped (the overlay copy
// stays stale — exactly the Fig 10c degradation). Exported so serving nodes
// apply the same rule to their snapshot when handling Publish RPCs.
func AbsorbInsert(published [][]ClusterRef, item []float64, conv wavelet.Convention) {
	if published == nil {
		return
	}
	dec := wavelet.Decompose(item, conv)
	for l := range published {
		refs := published[l]
		if len(refs) == 0 {
			continue
		}
		coeff := dec.Subspace(l)
		best, bestD := 0, -1.0
		for i, ref := range refs {
			d := vec.Dist(coeff, ref.Center)
			if bestD < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		refs[best].Items++ // local bookkeeping; the published copy is stale
	}
}
