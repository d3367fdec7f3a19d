package store

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"hyperm/internal/vec"
)

// This file is the store's scan index: derived, immutable data that lets the
// holder-side scans (core.LocalRange / core.LocalKNN) decide whole groups of
// rows from one centroid distance. It never changes an answer — a scan that
// ignores it reads the same rows — so it is built lazily by whichever scan
// first finds it missing or stale, and published through an atomic pointer.

// IndexMinRows is the store size from which scans build and use an index.
// Below it a scan is a few microseconds and a store is one unbounded run of
// rows. A constant and not a tunable: the only inputs that matter are the row
// count, which the code observes, and the fixed cost of one centroid
// distance per BlockRows rows.
const IndexMinRows = 2 * BlockRows

// indexTailDiv bounds the linearly scanned tail: the index is rebuilt once
// the rows appended since the last build exceed 1/indexTailDiv of the rows it
// covers, so rebuild work stays a constant factor of append work.
const indexTailDiv = 8

// ShellRows is how many rows share one sampled centroid distance (see
// Group.Shells): 8 bytes per ShellRows rows buys bounds at ShellRows-row
// granularity instead of one radius per group.
const ShellRows = 16

// Group is one pivot group of the scan index: the rows closer to this group's
// pivot than to any other, ordered by their distance from the group mean so
// that a sphere around a query cuts them into contiguous runs.
type Group struct {
	Centroid []float64
	// Rows are the member row numbers by ascending distance from Centroid.
	Rows []int32
	// Shells samples those distances: Shells[j] is the distance of
	// Rows[j*ShellRows], and the final entry that of the last row (the group
	// radius), so the rows of shell j lie between Shells[j] and Shells[j+1]
	// from Centroid. Nil when some member distance is not finite: such a
	// group promises nothing and Window returns all of it.
	Shells []float64
}

// Window returns the run Rows[lo:hi] that may hold rows whose distance from
// Centroid lies in [inner, outer]: every row before lo is closer to Centroid
// than inner, every row from hi on farther than outer. Whole shells only, so
// the run errs on the wide side; a NaN argument widens it to that end.
func (g *Group) Window(inner, outer float64) (lo, hi int) {
	if g.Shells == nil {
		return 0, len(g.Rows)
	}
	shells := len(g.Shells) - 1
	a := sort.Search(shells, func(j int) bool { return !(g.Shells[j+1] < inner) })
	b := a + sort.Search(shells-a, func(j int) bool { return g.Shells[a+j] > outer })
	return min(a*ShellRows, len(g.Rows)), min(b*ShellRows, len(g.Rows))
}

// scanIndex is the published form: Groups partition rows [0, len(byID));
// rows appended later are the caller's linearly scanned tail.
type scanIndex struct {
	groups []Group
	// byID lists the covered row numbers by ascending id (equal ids by
	// ascending row). A range scan marks its hits in a bitmap over row
	// numbers and reads them out along this array, so its answer leaves the
	// holder already sorted.
	byID  []int32
	bytes int // heap held by groups, byID and what they point into
}

// ScanGroups returns the store's pivot groups and how many leading rows they
// cover; rows [indexed, Len()) belong to no group and must be scanned
// linearly. A store below IndexMinRows has no groups (indexed == 0).
func (s *Store) ScanGroups() (groups []Group, indexed int) {
	groups, byID := s.ScanIndex()
	return groups, len(byID)
}

// ScanIndex returns the pivot groups together with the rows they cover in
// ascending-id order (see ScanGroups; indexed == len(byID)). Both come from
// one published index, so they agree even while another scan rebuilds it.
//
// A missing or outgrown index is built here, by the first scan to notice.
// Scans run concurrently under the owner's read lock, so the build is guarded
// by a try-lock: one scan builds, the others carry on with what is published
// (possibly nothing) instead of waiting. Builds therefore never run under the
// owner's write lock, which only Append needs.
func (s *Store) ScanIndex() (groups []Group, byID []int32) {
	ix := s.index.Load()
	if s.indexStale(ix) && s.building.CompareAndSwap(false, true) {
		// Re-read under the try-lock: the previous holder may have published
		// a fresh index between our Load and our CompareAndSwap.
		if ix = s.index.Load(); s.indexStale(ix) {
			ix = s.buildIndex()
			s.index.Store(ix)
		}
		s.building.Store(false)
	}
	if ix == nil {
		return nil, nil
	}
	return ix.groups, ix.byID
}

func (s *Store) indexStale(ix *scanIndex) bool {
	if s.n < IndexMinRows {
		return false
	}
	return ix == nil || (s.n-len(ix.byID))*indexTailDiv > len(ix.byID)
}

// buildIndex partitions the current rows into ~n/BlockRows pivot groups and
// orders them by id.
// Pivots are rows at an even stride (arrival order is as good a sample as
// any and keeps the build deterministic); one capped-distance pass assigns
// each row to its nearest pivot; a second pass over the members gives each
// group its mean and sorts the members by distance from it. No Lloyd
// iterations: grouping quality only moves how many rows a scan can decide
// without a distance, never what it returns.
func (s *Store) buildIndex() *scanIndex {
	n, dim := s.n, s.dim
	g := n / BlockRows
	pivots := make([][]float64, g)
	for j := range pivots {
		pivots[j] = s.Vec(j*n/g + n/(2*g))
	}

	assign := make([]int32, n)
	counts := make([]int, g)
	for i := 0; i < n; i++ {
		row := s.Vec(i)
		best, bestD := 0, vec.Dist2(row, pivots[0])
		for j := 1; j < g; j++ {
			if d := vec.Dist2Capped(row, pivots[j], bestD); d < bestD {
				best, bestD = j, d
			}
		}
		assign[i] = int32(best)
		counts[best]++
	}

	// Counting sort of row numbers by group into one backing array, summing
	// the centroids on the way.
	rows := make([]int32, n)
	groups := make([]Group, g)
	centroids := make([]float64, g*dim)
	off, largest := 0, 0
	for j := range groups {
		groups[j] = Group{Centroid: centroids[j*dim : (j+1)*dim : (j+1)*dim], Rows: rows[off : off : off+counts[j]]}
		off += counts[j]
		largest = max(largest, counts[j])
	}
	for i, j := range assign {
		grp := &groups[j]
		grp.Rows = append(grp.Rows, int32(i))
		vec.Add(grp.Centroid, s.Vec(i))
	}

	type member struct {
		row  int32
		dist float64
	}
	members := make([]member, 0, largest)
	shells := make([]float64, 0, n/ShellRows+2*g)
	kept := groups[:0]
	for _, grp := range groups {
		if len(grp.Rows) == 0 {
			continue // a duplicate of an earlier pivot attracts nothing
		}
		vec.Scale(grp.Centroid, 1/float64(len(grp.Rows)))
		members = members[:0]
		for _, r := range grp.Rows {
			members = append(members, member{r, vec.Dist(grp.Centroid, s.Vec(int(r)))})
		}
		// cmp.Compare orders NaN first and +Inf last, so the two ends tell
		// whether every distance is finite.
		slices.SortFunc(members, func(a, b member) int {
			if c := cmp.Compare(a.dist, b.dist); c != 0 {
				return c
			}
			return cmp.Compare(a.row, b.row)
		})
		for i, m := range members {
			grp.Rows[i] = m.row
		}
		last := members[len(members)-1].dist
		if !math.IsNaN(members[0].dist) && !math.IsInf(last, 1) {
			start := len(shells)
			for i := 0; i < len(members); i += ShellRows {
				shells = append(shells, members[i].dist)
			}
			shells = append(shells, last)
			grp.Shells = shells[start:len(shells):len(shells)]
		}
		kept = append(kept, grp)
	}
	byID := s.rowsByID(n)
	const groupBytes = 3 * 3 * 8 // three slice headers
	bytes := cap(groups)*groupBytes + cap(centroids)*8 + cap(rows)*4 + cap(shells)*8 + cap(byID)*4
	return &scanIndex{groups: kept, byID: byID, bytes: bytes}
}

// rowsByID returns the first n row numbers ordered by (id, row).
func (s *Store) rowsByID(n int) []int32 {
	ids := s.ids[:n]
	byID := make([]int32, len(ids))
	for i := range byID {
		byID[i] = int32(i)
	}
	// Stores filled in id order are the common case and need no sort.
	if !slices.IsSorted(ids) {
		slices.SortFunc(byID, func(a, b int32) int {
			if c := cmp.Compare(ids[a], ids[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	return byID
}

// indexBytes is the heap held by the published index, if any.
func (s *Store) indexBytes() int {
	if ix := s.index.Load(); ix != nil {
		return ix.bytes
	}
	return 0
}
