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

// IndexMinRows is the store size from which scans build and use an index; a
// smaller store is one unbounded run of rows. It sits a factor of two above
// the measured crossover of the two scan paths (EXPERIMENTS.md "Indexing the
// paper's stores"): timed on eight stores in turn, clustered and §5.1 Markov
// rows, dims 8, 32 and 128, 2 cores, the index lost only on clustered rows
// below 96 (range up to 1.9× the linear scan at 32–64 rows, ~1 µs either
// way) and won every shape from 96 rows to 256 (range 0.2–0.93×, k-nn
// 0.4–0.85×). On 128-d Markov rows, the benchmark's corpus, a 512-row range
// scan takes 13 µs instead of 53 and a k-nn scan 19 instead of 41. Only k-nn
// over clustered rows from ~400 rows does not gain (0.7–1.7×). A constant
// and not a tunable: the only inputs that matter are the row count, which
// the code observes, and the fixed cost of one centroid distance per group.
const IndexMinRows = 256

// indexTailDiv bounds the linearly scanned tail: the index is rebuilt once
// the rows appended since the last build exceed 1/indexTailDiv of the rows it
// covers, so rebuild work stays a constant factor of append work.
const indexTailDiv = 8

// ShellRows is how many rows share one sampled centroid distance (see
// Group.Shells): 8 bytes per ShellRows rows buys bounds at ShellRows-row
// granularity instead of one radius per group.
const ShellRows = 16

// SketchBlocks is how many equal runs of coordinates a row's sketch sums
// (see Sketch). The block sums span the row's first SketchBlocks orthonormal
// Haar coefficients. Each block costs 4 bytes per row and settles more rows;
// two blocks (12 bytes with the deviation norm) keep the index's memory
// within the benchmark's bound.
const SketchBlocks = 2

// Sketch summarises one row for the scans' distance bounds: the sums of its
// coordinates over SketchBlocks equal blocks, then the norm of the row's
// deviation from its block means, rounded to float32.
//
// The block means are the row's orthogonal projection onto the vectors
// constant on each block, so a squared distance splits into that projection's
// part, P² = Σ_b (S_b(q) − S_b(x))² / (dim/SketchBlocks), and the distance of
// the two deviations, which lies between the difference and the sum of their
// norms ρ: P² + (ρq − ρx)² ≤ ‖q − x‖² ≤ P² + (ρq + ρx)².
type Sketch [SketchBlocks + 1]float32

// SketchOf returns v's sketch in float64: the block sums, then the norm of
// the deviation from the block means. len(v) must be a multiple of
// SketchBlocks.
func SketchOf(v []float64) (sk [SketchBlocks + 1]float64) {
	h := len(v) / SketchBlocks
	var dev float64
	for b := range SketchBlocks {
		block := v[b*h : (b+1)*h]
		var sum float64
		for _, x := range block {
			sum += x
		}
		mean := sum / float64(h)
		for _, x := range block {
			d := x - mean
			dev += d * d
		}
		sk[b] = sum
	}
	sk[SketchBlocks] = math.Sqrt(dev)
	return sk
}

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
	// Sketch[i] is the sketch of row Rows[i], so the window Rows[lo:hi] reads
	// the contiguous run Sketch[lo:hi] instead of the scattered rows. Nil when
	// the store's dim is not a multiple of SketchBlocks, when the group has no
	// Shells, or when some member's sketch is not finite in float32.
	Sketch []Sketch
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

// scanIndex is the published form: groups partition rows [0, indexed); rows
// appended later are the caller's linearly scanned tail.
type scanIndex struct {
	groups  []Group
	indexed int
	bytes   int // heap held by groups and what they point into
}

// ScanGroups returns the store's pivot groups and how many leading rows they
// cover; rows [indexed, Len()) belong to no group and must be scanned
// linearly. A store below IndexMinRows has no groups (indexed == 0). Both come
// from one published index, so they agree even while another scan rebuilds
// it.
//
// A missing or outgrown index is built here, by the first scan to notice.
// Scans run concurrently under the owner's read lock, so the build is guarded
// by a try-lock: one scan builds, the others carry on with what is published
// (possibly nothing) instead of waiting. Builds therefore never run under the
// owner's write lock, which only Append needs.
func (s *Store) ScanGroups() (groups []Group, indexed int) {
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
		return nil, 0
	}
	return ix.groups, ix.indexed
}

func (s *Store) indexStale(ix *scanIndex) bool {
	if s.n < IndexMinRows {
		return false
	}
	return ix == nil || (s.n-ix.indexed)*indexTailDiv > ix.indexed
}

// buildIndex partitions the current rows into max(2, n/BlockRows) pivot
// groups: one per BlockRows rows, and two for a store of fewer than
// 2·BlockRows, whose rows then still split into windows narrower than one run.
// Pivots are rows at an even stride (arrival order is as good a sample as
// any and keeps the build deterministic); one capped-distance pass assigns
// each row to its nearest pivot; a second pass over the members gives each
// group its mean, sorts the members by distance from it and lays out their
// sketches in that order. No Lloyd iterations: grouping quality only moves
// how many rows a scan can decide without a distance, never what it returns.
func (s *Store) buildIndex() *scanIndex {
	n, dim := s.n, s.dim
	g := max(2, n/BlockRows)
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
		row    int32
		dist   float64
		sketch Sketch
	}
	members := make([]member, 0, largest)
	shells := make([]float64, 0, n/ShellRows+2*g)
	var sketches []Sketch
	if dim%SketchBlocks == 0 {
		sketches = make([]Sketch, n)
	}
	kept := groups[:0]
	off = 0 // where the group's rows start in rows, and its sketches in sketches
	for _, grp := range groups {
		if len(grp.Rows) == 0 {
			continue // a duplicate of an earlier pivot attracts nothing
		}
		vec.Scale(grp.Centroid, 1/float64(len(grp.Rows)))
		members = members[:0]
		finite := sketches != nil
		for _, r := range grp.Rows {
			m := member{row: r, dist: vec.Dist(grp.Centroid, s.Vec(int(r)))}
			if finite {
				for b, v := range SketchOf(s.Vec(int(r))) {
					m.sketch[b] = float32(v)
					f := float64(m.sketch[b])
					finite = finite && !math.IsInf(f, 0) && !math.IsNaN(f)
				}
			}
			members = append(members, m)
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
			if finite {
				grp.Sketch = sketches[off : off+len(members) : off+len(members)]
				for i, m := range members {
					grp.Sketch[i] = m.sketch
				}
			}
		}
		off += len(members)
		kept = append(kept, grp)
	}
	const groupBytes = 4 * 3 * 8 // four slice headers
	bytes := cap(groups)*groupBytes + cap(centroids)*8 + cap(rows)*4 + cap(shells)*8 +
		cap(sketches)*4*(SketchBlocks+1)
	return &scanIndex{groups: kept, indexed: n, bytes: bytes}
}

// indexBytes is the heap held by the published index, if any.
func (s *Store) indexBytes() int {
	if ix := s.index.Load(); ix != nil {
		return ix.bytes
	}
	return 0
}
