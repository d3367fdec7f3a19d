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
// its flat item store, returning the ids of every item within eps of q. An
// indexed store (from store.IndexMinRows rows, a few hundred: most of the
// paper's peers) answers in ascending id order; a smaller store, or one
// scanned while its first index is being built, in row order. It
// materialises LocalRangeIDs.
func LocalRange(q []float64, eps float64, st *store.Store) []int {
	return LocalRangeIDs(q, eps, st).Items()
}

// LocalRangeIDs is LocalRange's answer in its dense form (RangeIDs), fresh
// memory. Exported so serving nodes (internal/node) answer fetch RPCs with the
// exact same rule as the in-process simulation; the form is what the fetch
// carries and what Engine.RangeQuery unions.
func LocalRangeIDs(q []float64, eps float64, st *store.Store) RangeIDs {
	eps2 := eps * eps
	// Dist2Capped exits on ">= bound"; membership is "<= eps2". Capping one
	// ulp above eps2 makes the early exit mean "> eps2", so a row sitting
	// exactly on the boundary still gets its full distance and is kept.
	bound := math.Nextafter(eps2, math.Inf(1))
	ids := st.IDs()
	groups, indexed := st.ScanGroups()
	if indexed == 0 {
		// A small store, or one whose first index another scan is still
		// building: hits in row order. Row order can ascend and fill
		// a chunk, so a list long enough to take the form is given it. A
		// small store's list never is, and its scan, which runs on a fresh
		// handler goroutine's stack, does not call down into RangeIDsOf.
		var out []int
		for i := range ids {
			if vec.Dist2Capped(q, st.Vec(i), bound) <= eps2 {
				out = append(out, ids[i])
			}
		}
		if len(out) > sparseMax {
			return RangeIDsOf(out)
		}
		return RangeIDs{List: out}
	}
	return localRangeIndexed(q, eps2, bound, st, groups, indexed)
}

// localRangeIndexed is LocalRangeIDs over an indexed store: groups cover rows
// [0, indexed), the rest is the tail. Its own function, so a small store's
// scan, which runs on a fresh handler goroutine's stack, does not pay for
// this one's frame.
func localRangeIndexed(q []float64, eps2, bound float64, st *store.Store, groups []store.Group, indexed int) RangeIDs {
	ids := st.IDs()
	sc := rangeScratchPool.Get().(*rangeScratch)
	defer rangeScratchPool.Put(sc)
	words := (indexed + 63) / 64
	accepted, candidate := sc.bitmaps(words)
	// The radius the bounds reason with is derived from eps2, so that a
	// square that overflowed (or a NaN) disables them instead of disagreeing
	// with the per-row test.
	r := math.Sqrt(eps2)
	qs := newQuerySketch(q)
	qs.ok = qs.ok && r <= math.MaxFloat64 // an infinite or NaN radius settles nothing
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
		window := g.Rows[lo:hi]
		if !qs.ok || g.Sketch == nil {
			for _, row := range window {
				candidate[row>>6] |= 1 << (row & 63)
			}
			continue
		}
		// The window's sketches settle most of its rows: outside the ball by
		// their lower bound, inside by their upper one, each with a slack
		// over the sketch's float32 rounding. The rest are candidates.
		s := qs.slack(d, g, r)
		outer, inner := r+s, max(r-s, 0)
		outer2, inner2 := outer*outer, inner*inner
		sketch := g.Sketch[lo:hi]
		for i, row := range window {
			switch lo2, hi2 := qs.bounds(&sketch[i]); {
			case lo2 > outer2:
			case hi2 < inner2:
				accepted[row>>6] |= 1 << (row & 63)
			default:
				candidate[row>>6] |= 1 << (row & 63)
			}
		}
	}
	// Candidates pay their distance in ascending row order, which reads the
	// store's blocks front to back instead of in centroid-distance order.
	for w, word := range candidate {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if vec.Dist2Capped(q, st.Vec(w<<6|b), bound) <= eps2 {
				accepted[w] |= 1 << b
			}
		}
	}
	// The hits' ids, the tail's included, go straight into chunk bitmaps,
	// which hand them out ascending. An id on two rows, or ids across more
	// chunks than the scratch holds, and they are listed in row order and
	// sorted instead.
	tail := sc.tail[:0]
	for i := indexed; i < len(ids); i++ {
		if vec.Dist2Capped(q, st.Vec(i), bound) <= eps2 {
			tail = append(tail, ids[i])
		}
	}
	sc.tail = tail
	cs := chunkSetPool.Get().(*chunkSet)
	defer cs.release()
	if cs.addRows(accepted, ids) && cs.addIDs(tail) {
		if out, ok := cs.form(); ok {
			return out
		}
	}
	n := len(tail)
	for _, word := range accepted {
		n += bits.OnesCount64(word)
	}
	out := make([]int, 0, n)
	for w, word := range accepted {
		for ; word != 0; word &= word - 1 {
			out = append(out, ids[w<<6|bits.TrailingZeros64(word)])
		}
	}
	out = append(out, tail...)
	sortIDs(out)
	return RangeIDsOf(out)
}

// rangeScratch is LocalRangeIDs' per-call working memory, pooled: two bitmaps
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
	qs := newQuerySketch(q)
	for _, o := range order {
		g := &groups[o.group]
		// Only rows within the k-th distance r of q can still enter: by the
		// same bounds their centroid distance is within r of d. The window
		// is closed and widened by the slack, so ties are never cut.
		r := math.Sqrt(top.limit)
		slack := boundSlack * (o.d + r)
		lo, hi := g.Window(o.d-r-slack, o.d+r+slack)
		var sketch []store.Sketch
		if qs.ok && g.Sketch != nil {
			sketch = g.Sketch[lo:hi]
		}
		// A row whose sketch's lower bound clears the k-th distance by the
		// slack is strictly farther than the heap root and cannot enter. The
		// cut follows the root as it moves.
		limit, cut := math.NaN(), 0.0 // the root cut was computed for (NaN: none yet)
		for i, row := range g.Rows[lo:hi] {
			if sketch != nil {
				if top.limit != limit {
					limit = top.limit
					r := math.Sqrt(limit)
					c := r + qs.slack(o.d, g, r)
					cut = c * c
				}
				if lo2, _ := qs.bounds(&sketch[i]); lo2 > cut {
					continue
				}
			}
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

// querySketch is the query's side of the sketch bounds (store.Sketch): its
// block sums and deviation norm in float64, its norm for the slack, and
// 1/(dim/SketchBlocks). ok is false when the store's rows have no sketch
// (dim not a multiple of SketchBlocks) or when any of these is not finite:
// such a query reads every window row, as the scans did before sketches.
type querySketch struct {
	sk         [store.SketchBlocks + 1]float64
	norm, invH float64
	ok         bool
}

func newQuerySketch(q []float64) querySketch {
	if len(q)%store.SketchBlocks != 0 {
		return querySketch{}
	}
	qs := querySketch{sk: store.SketchOf(q), norm: vec.Norm(q), invH: store.SketchBlocks / float64(len(q))}
	qs.ok = !math.IsInf(qs.norm, 0) && !math.IsNaN(qs.norm)
	for _, v := range qs.sk {
		qs.ok = qs.ok && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	return qs
}

// bounds returns a lower and an upper bound on the squared distance from the
// query to a row with sketch x, each exact but for rounding (see slack).
func (qs *querySketch) bounds(x *store.Sketch) (lo2, hi2 float64) {
	var p2 float64
	for b := range store.SketchBlocks {
		d := qs.sk[b] - float64(x[b])
		p2 += d * d
	}
	p2 *= qs.invH
	dq, dx := qs.sk[store.SketchBlocks], float64(x[store.SketchBlocks])
	return p2 + (dq-dx)*(dq-dx), p2 + (dq+dx)*(dq+dx)
}

// slack is how far the square roots of the bounds may be from the exact ones
// for the members of g, which lies d from the query, against a radius r. It
// scales with the norms of query and row; a member's norm is at most the
// centroid's, itself at most the query's plus d, plus the group radius.
func (qs *querySketch) slack(d float64, g *store.Group, r float64) float64 {
	radius := g.Shells[len(g.Shells)-1]
	return sketchSlack*(2*qs.norm+d+radius+r) + sketchFloor
}

// sketchSlack and sketchFloor are the relative and absolute slack on the
// sketch bounds. A sketch is float32: each of its values is off by up to
// 2^-24 of its size plus float32's subnormal spacing 2^-149, so a bound's
// square root is off by at most about 2^-24·√2·(‖q‖ + ‖x‖) + 2^-147 (the
// float64 arithmetic adds orders of magnitude less). sketchSlack is over a
// hundred times that relative error; sketchFloor is far above the subnormal
// spacing and above 1.5e-154, under which a float64 square underflows. A row
// is decided from its sketch only when it clears the boundary by both, and
// then also clears it by far more than the exact path's own rounding.
const (
	sketchSlack = 1e-5
	sketchFloor = 1e-30
)

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
