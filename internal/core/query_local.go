package core

import (
	"cmp"
	"math"
	"slices"

	"hyperm/internal/store"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// LocalRange is the second query phase on a contacted peer: an exact scan of
// its flat item store, returning the ids of every item within eps of q.
// Exported so serving nodes (internal/node) answer fetch RPCs with the exact
// same rule as the in-process simulation. The result is a set: its order is
// deterministic for a given store and scan-index state, otherwise unspecified
// (Engine.RangeQuery sorts the merged ids).
func LocalRange(q []float64, eps float64, st *store.Store) []int {
	var out []int
	eps2 := eps * eps
	// Dist2Capped exits on ">= bound"; membership is "<= eps2". Capping one
	// ulp above eps2 makes the early exit mean "> eps2", so a row sitting
	// exactly on the boundary still gets its full distance and is kept.
	bound := math.Nextafter(eps2, math.Inf(1))
	// The radius the bounds reason with is derived from eps2, so that a
	// square that overflowed (or a NaN) disables them instead of disagreeing
	// with the per-row test.
	r := math.Sqrt(eps2)
	ids := st.IDs()
	groups, indexed := st.ScanGroups()
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
				out = append(out, ids[row])
			}
		}
		for _, row := range g.Rows[lo:hi] {
			if vec.Dist2Capped(q, st.Vec(int(row)), bound) <= eps2 {
				out = append(out, ids[row])
			}
		}
	}
	for i := indexed; i < len(ids); i++ {
		if vec.Dist2Capped(q, st.Vec(i), bound) <= eps2 {
			out = append(out, ids[i])
		}
	}
	return out
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
