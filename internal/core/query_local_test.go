package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"hyperm/internal/dataset"
	"hyperm/internal/store"
	"hyperm/internal/vec"
)

// referenceLocalRange and referenceLocalKNN are the pre-index scan bodies,
// frozen: a full Dist2 per row, and a full sort for kNN. The shipped kernels
// must return the same items from any store in any scan-index state.
func referenceLocalRange(q []float64, eps float64, st *store.Store) []int {
	var out []int
	eps2 := eps * eps
	for i, n := 0, st.Len(); i < n; i++ {
		if vec.Dist2(q, st.Vec(i)) <= eps2 {
			out = append(out, st.ID(i))
		}
	}
	return out
}

func referenceLocalKNN(q []float64, k int, st *store.Store) []ItemDist {
	if k <= 0 || st.Len() == 0 {
		return nil
	}
	cands := make([]ItemDist, st.Len())
	for i := range cands {
		cands[i] = ItemDist{ID: st.ID(i), Dist2: vec.Dist2(q, st.Vec(i))}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Dist2 != cands[j].Dist2 {
			return cands[i].Dist2 < cands[j].Dist2
		}
		return cands[i].ID < cands[j].ID
	})
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k]
}

// clusteredRows draws n dim-wide rows around a handful of centres, with a
// share of exact duplicates (equal-distance ties across ids) — the shape that
// makes pivot groups tight enough for every branch of the scan to fire.
func clusteredRows(rng *rand.Rand, n, dim int) [][]float64 {
	centres := make([][]float64, 6)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for j := range centres[c] {
			centres[c][j] = rng.Float64()
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		if i > 0 && rng.Intn(10) == 0 {
			rows[i] = rows[rng.Intn(i)] // duplicate vector, distinct id
			continue
		}
		c := centres[rng.Intn(len(centres))]
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = c[j] + 0.02*rng.NormFloat64()
		}
	}
	return rows
}

// latticeRows draws rows with small integer coordinates around a few integer
// centres. Every squared distance is a small integer, so equal-distance ties
// across ids, rows exactly on a range boundary, and partial sums that equal
// the bound before the last coordinate are the common case, not a rarity.
func latticeRows(rng *rand.Rand, n, dim int) [][]float64 {
	centres := make([][]float64, 4)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for j := range centres[c] {
			centres[c][j] = float64(rng.Intn(12))
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		c := centres[rng.Intn(len(centres))]
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = c[j] + float64(rng.Intn(3)-1)
		}
	}
	return rows
}

// markovRows are §5.1's Markov vectors, the corpus the benchmark deals to its
// peers: no cluster structure for the pivots to find.
func markovRows(rng *rand.Rand, n, dim int) [][]float64 {
	return dataset.Markov(dataset.MarkovConfig{N: n, Dim: dim}, rng)
}

// offsetRows are clusteredRows moved by 1e6 along every axis: norms dwarf
// distances, so the float32 rounding of a row's sketch (a block sum near
// 1.6e7 is off by up to 1) is larger than the gaps between the rows a scan
// must tell apart. Every third row is flattened to its means over the
// sketch's blocks: between two such rows both sketch bounds equal the
// distance, so rounding alone decides which side of a radius they fall.
func offsetRows(rng *rand.Rand, n, dim int) [][]float64 {
	rows := clusteredRows(rng, n, dim)
	h := dim / store.SketchBlocks
	for i, r := range rows {
		rows[i] = make([]float64, dim)
		for j, v := range r {
			rows[i][j] = v + 1e6
		}
		if i%3 == 0 {
			for b := range store.SketchBlocks {
				block := rows[i][b*h : (b+1)*h]
				var sum float64
				for _, v := range block {
					sum += v
				}
				for j := range block {
					block[j] = sum / float64(h)
				}
			}
		}
	}
	return rows
}

// indexState names one way a store can reach a scan: how many rows it held
// when a scan last built the index, how many it holds now, and how many pivot
// groups the index the scan reads has.
type indexState struct {
	name        string
	built, rows int // built == 0: never scanned before
	groups      int
}

func indexStates() []indexState {
	const m, b = store.IndexMinRows, 2 * store.BlockRows
	return []indexState{
		{"empty", 0, 0, 0},
		{"one-row", 0, 1, 0},
		{"below-threshold", 0, m - 1, 0},
		{"at-threshold-first-scan", 0, m, 2},
		{"above-threshold-first-scan", 0, m + 700, 2},
		{"fresh", m + 700, m + 700, 2},
		{"stale-tail", m + 700, m + 700 + 40, 2},     // tail scanned linearly
		{"crossed-threshold-since", m - 5, m + 5, 2}, // absent at first scan, built now
		{"rebuilt-after-growth", m, m + m/2, 2},      // tail outgrew the index
		// From 2·BlockRows rows on, one group per BlockRows rows.
		{"two-blocks-first-scan", 0, b, 2},
		{"two-blocks-rebuilt", b, b + b/2, 3},
		{"several-groups-stale", 4 * b, 4*b + store.BlockRows/4, 8},
	}
}

// idLayout names one way ids relate to append order. id(i, built, perm) is
// the id of row i in a store whose index, if any, was built at built rows;
// perm is a random permutation of the row numbers. farTail moves the rows
// appended after the build far from the others, so a query near one of them
// has every hit in the un-indexed tail.
type idLayout struct {
	name    string
	id      func(i, built int, perm []int) int
	farTail bool
}

var shuffledIDs = idLayout{name: "shuffled", id: func(i, _ int, perm []int) int { return perm[i]*3 + 1 }}

func idLayouts() []idLayout {
	return []idLayout{
		{name: "descending", id: func(i, _ int, perm []int) int { return len(perm) - i }},
		// Append order cycles through seven ascending id sequences, as when a
		// corpus numbered globally is dealt to peers by cluster.
		{name: "interleaved", id: func(i, _ int, perm []int) int { return i%7*len(perm) + i/7 }},
		{name: "duplicates", id: func(i, _ int, perm []int) int { return perm[i] % (len(perm)/3 + 1) }},
		{name: "negative", id: func(i, _ int, perm []int) int { return perm[i] - len(perm)/2 }},
		// Every id appended after the build sorts below every indexed id.
		{name: "tail-below", farTail: true, id: func(i, built int, perm []int) int {
			if i < built {
				return len(perm) + perm[i]
			}
			return len(perm) - i
		}},
		// The dense form's cuts (see RangeIDs): one id on two rows of an
		// otherwise dense answer; ids straddling a 2^16 boundary; a chunk
		// that holds exactly 4096 and one that holds 4097 ids when every row
		// is a hit; and ids at and above 2^24 — every 50th row and the tail
		// — beside a chunk of corpus ids.
		{name: "one-duplicate", id: func(i, _ int, perm []int) int { return max(perm[i], 1) }},
		{name: "straddle-2^16", id: func(i, _ int, perm []int) int { return 1<<16 - len(perm)/2 + perm[i] }},
		{name: "chunk-4096", id: func(i, _ int, perm []int) int { return chunkAfter(4096, perm[i]) }},
		{name: "chunk-4097", id: func(i, _ int, perm []int) int { return chunkAfter(4097, perm[i]) }},
		{name: "above-2^24", id: func(i, built int, perm []int) int {
			if i%50 == 0 || (built > 0 && i >= built) {
				return 1<<24 + perm[i]
			}
			return perm[i]
		}},
	}
}

// chunkAfter maps p to an id: the first n values of p fill chunk 0, the rest
// go to chunk 1.
func chunkAfter(n, p int) int {
	if p < n {
		return p
	}
	return 1<<16 + p
}

// storeInState appends rows under the given id layout, scanning once at
// is.built rows so the index, if any, is that old.
func storeInState(rng *rand.Rand, is indexState, dim int, gen func(*rand.Rand, int, int) [][]float64, ids idLayout) *store.Store {
	rows := gen(rng, is.rows, dim)
	perm := rng.Perm(is.rows)
	st := store.New(dim)
	for i, r := range rows {
		if i == is.built && is.built > 0 {
			LocalKNN(rows[0], 1, st)
		}
		if ids.farTail && i >= is.built && is.built > 0 {
			r = vec.Clone(r)
			for j := range r {
				r[j] += 50
			}
		}
		st.Append(ids.id(i, is.built, perm), r)
	}
	if is.built == is.rows && is.built > 0 {
		LocalKNN(rows[0], 1, st)
	}
	return st
}

func sortedCopy(ids []int) []int {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// checkForm holds a scan's dense form to the reference answer want (sorted
// for an indexed store): it materialises to want, it is the form want's ids
// decide, and a decoder accepts it.
func checkForm(t *testing.T, form RangeIDs, want []int) {
	t.Helper()
	if got := form.Items(); !slices.Equal(got, want) {
		t.Fatalf("LocalRangeIDs materialises to %d ids (ascending: %v), reference %d", len(got), slices.IsSorted(got), len(want))
	}
	if canon := RangeIDsOf(want); !sameForm(form, canon) {
		t.Fatalf("LocalRangeIDs returned %d bitmap chunks and %d listed ids, the reference's form has %d and %d",
			len(form.Keys), len(form.List), len(canon.Keys), len(canon.List))
	}
	if err := form.Check(); err != nil {
		t.Fatalf("LocalRangeIDs returned a form a decoder refuses: %v", err)
	}
}

func TestLocalScansMatchReference(t *testing.T) {
	type shape struct {
		name string
		dim  int
		gen  func(*rand.Rand, int, int) [][]float64
		ids  idLayout
	}
	shapes := []shape{
		{"clustered32", 32, clusteredRows, shuffledIDs},
		{"clustered13", 13, clusteredRows, shuffledIDs}, // not a multiple of Dist2Capped's 8-wide step
		{"lattice16", 16, latticeRows, shuffledIDs},
		// The sketch's shapes: 32-d rows on the lattice (on-boundary rows and
		// ties everywhere) and far from the origin (rounding past the gaps).
		{"lattice32", 32, latticeRows, shuffledIDs},
		{"offset32", 32, offsetRows, shuffledIDs},
		// One and two dimensions make the triangle inequality tight: rows sit
		// on the line through query and centroid, right at the window edges.
		{"clustered1", 1, clusteredRows, shuffledIDs},
		{"lattice2", 2, latticeRows, shuffledIDs},
		// The stores the paper's peers hold: a few hundred 128-d rows.
		{"clustered128", 128, clusteredRows, shuffledIDs},
		{"markov128", 128, markovRows, shuffledIDs},
	}
	// The other id layouts only change the order hits are emitted in, which
	// one data shape covers.
	for _, ids := range idLayouts() {
		shapes = append(shapes, shape{"clustered32-" + ids.name, 32, clusteredRows, ids})
	}
	for _, sh := range shapes {
		dim, ids := sh.dim, sh.ids
		for _, is := range indexStates() {
			t.Run(sh.name+"/"+is.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(dim*1000 + is.rows)))
				st := storeInState(rng, is, dim, sh.gen, ids)
				n := st.Len()
				groups, indexed := st.ScanGroups()
				// Lattice rows repeat, and a pivot equal to an earlier one
				// attracts no row: its group is dropped.
				exact := !strings.HasPrefix(sh.name, "lattice")
				if len(groups) > is.groups || len(groups) < is.groups && (exact || len(groups) == 0) || indexed > n {
					t.Fatalf("store of %d rows: %d groups covering %d rows, want %d groups", n, len(groups), indexed, is.groups)
				}

				var queries [][]float64
				for i := 0; i < 6 && n > 0; i++ {
					queries = append(queries, st.Vec(rng.Intn(n))) // a stored row: distance 0 and its duplicates
					q := vec.Clone(st.Vec(rng.Intn(n)))
					for j := range q {
						q[j] += 0.05 * rng.NormFloat64()
					}
					queries = append(queries, q)
				}
				if n == 0 {
					queries = append(queries, make([]float64, dim))
				} else {
					queries = append(queries, st.Vec(n-1)) // a tail row, when there is a tail
				}

				for qi, q := range queries {
					// Radii: exactly the distance to a stored row (the
					// boundary row must be kept), zero, tiny, huge, and the
					// two non-finite cases.
					epss := []float64{0, 1e-300, 0.05, 0.3, 1, 2, 3, 4, 10, math.Inf(1), math.NaN()}
					for i := 0; i < 6 && n > 0; i++ {
						epss = append(epss, vec.Dist(q, st.Vec(rng.Intn(n))))
					}
					for _, eps := range epss {
						// An indexed store answers in ascending id order, a
						// smaller one in row order like the reference.
						want := referenceLocalRange(q, eps, st)
						if indexed > 0 {
							slices.Sort(want)
						}
						if got := LocalRange(q, eps, st); !slices.Equal(got, want) {
							t.Fatalf("query %d eps %v: LocalRange returned %d ids (ascending: %v), reference %d",
								qi, eps, len(got), slices.IsSorted(got), len(want))
						}
						checkForm(t, LocalRangeIDs(q, eps, st), want)
					}
					if ids.name != shuffledIDs.name {
						continue // ids reach a kNN answer only through ties
					}
					// One reference sort per query: its answer for any k is
					// a prefix of its answer for all rows. Mid-sized k keeps
					// the k-th distance large while later groups are cut
					// against it.
					all := referenceLocalKNN(q, n, st)
					for _, k := range []int{-1, 0, 1, 5, n / 7, n / 2, n - 1, n, n + 1} {
						want := all[:max(0, min(k, n))]
						got := LocalKNN(q, k, st)
						if !slices.Equal(got, want) {
							t.Fatalf("query %d k %d: LocalKNN diverges from reference\n got %v\nwant %v", qi, k, head(got), head(want))
						}
					}
				}
			})
		}
	}
}

// TestLocalKNNFarSideOfCentroid is the one geometry random stores do not
// produce: the heap is already full of near rows when the scan reaches a
// group whose winning members lie beyond the query as seen from the group's
// centroid, at the outer edge of its window, in its last shells. On a line:
// group A is 900 rows at 0 plus 100 rows at 49.99 (centroid ~5), group B sits
// at 50.1; from q = 49.8 B's centroid is nearer, so B fills the heap first
// and A is cut against the resulting k-th distance.
func TestLocalKNNFarSideOfCentroid(t *testing.T) {
	const n = 2 * store.BlockRows // two pivots: rows n/4 and 3n/4
	st := store.New(1)
	for row := 0; row < n; row++ {
		v := 50.1
		switch {
		case row == n/4:
			v = 0 // pivot A
		case row == 3*n/4:
			v = 100 // pivot B
		case row < 900:
			v = 0
		case row < 1000:
			v = 49.99
		}
		// Descending ids: the id tie-break picks the highest row numbers,
		// which sort last within their group.
		st.Append(n-row, []float64{v})
	}
	if groups, _ := st.ScanGroups(); len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	q := []float64{49.8}
	for _, k := range []int{1, 2, 3, 150} {
		if got, want := LocalKNN(q, k, st), referenceLocalKNN(q, k, st); !slices.Equal(got, want) {
			t.Errorf("k %d: got %v, want %v", k, head(got), head(want))
		}
	}
	for _, eps := range []float64{0.19, vec.Dist(q, []float64{49.99}), 0.3, 49.8} {
		got, want := sortedCopy(LocalRange(q, eps, st)), sortedCopy(referenceLocalRange(q, eps, st))
		if !slices.Equal(got, want) {
			t.Errorf("eps %v: %d ids, want %d", eps, len(got), len(want))
		}
	}
}

func head(x []ItemDist) []ItemDist {
	if len(x) > 8 {
		return x[:8]
	}
	return x
}

// TestLocalKNNAllocsIndependentOfRows fences the selection kernel: the result
// slice and the group ordering, whatever the store size.
func TestLocalKNNAllocsIndependentOfRows(t *testing.T) {
	for _, n := range []int{1000, 50000} {
		st := benchStore(n)
		q := st.Vec(n / 2)
		LocalKNN(q, 5, st) // build the index outside the measurement
		if allocs := testing.AllocsPerRun(20, func() { LocalKNN(q, 5, st) }); allocs > 2 {
			t.Errorf("LocalKNN over %d rows: %.0f allocs/call, want <= 2", n, allocs)
		}
	}
}

func TestSortIDsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := map[string][]int{
		"empty":  nil,
		"single": {5},
		"small":  {9, 1, 1<<28 + 3, 0, 7},
		"zeros":  make([]int, 2*radixMinPerPass), // no digit at all: no pass
	}
	// Either side of the one-pass threshold (the duplicates, all below 50) and
	// of the four-pass one (the wide ids), and far beyond both.
	for _, n := range []int{radixMinPerPass - 1, radixMinPerPass, 4*radixMinPerPass - 1, 4 * radixMinPerPass, 120000} {
		dense := rng.Perm(n)
		cases[fmt.Sprintf("perm-%d", n)] = dense
		cases[fmt.Sprintf("sorted-%d", n)] = sortedCopy(dense)
		wide := make([]int, n)
		for i := range wide {
			wide[i] = rng.Intn(1 << 40) // ids >= 1<<28: more than two digits
		}
		cases[fmt.Sprintf("wide-%d", n)] = wide
		dup := make([]int, n)
		for i := range dup {
			dup[i] = rng.Intn(50)
		}
		cases[fmt.Sprintf("dups-%d", n)] = dup
		neg := slices.Clone(dense)
		neg[n/2] = -4
		cases[fmt.Sprintf("negative-%d", n)] = neg
		big := slices.Clone(dense)
		big[n/3] = math.MaxInt
		cases[fmt.Sprintf("maxint-%d", n)] = big
	}
	for name, ids := range cases {
		want := sortedCopy(ids)
		got := slices.Clone(ids)
		sortIDs(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: sortIDs differs from slices.Sort", name)
		}
	}
}

// FuzzLocalScans runs both scans against the frozen reference bodies on an
// indexed store built from the input: dim 8, 16, 32, 64 or 128, clustered or
// lattice rows scaled by 2^(4·scaleExp) and moved by ±2^(4·offExp) (far
// enough either way for float32 to overflow or flush a sketch to zero, and
// for float64 squares to underflow), ids in one of the layouts
// TestLocalScansMatchReference uses, from IndexMinRows to 2k rows or (shape
// >= 128) 4k — enough for a dense chunk — and a tail of rows appended after
// the build, a query at or near a stored row, eps from raw bits and as the
// distances to three stored rows, and any k. The range scan's dense form must
// be the reference's (checkForm).
func FuzzLocalScans(f *testing.F) {
	f.Add(int64(1), uint8(2), int8(-128), int8(0), math.Float64bits(0.3), 5)
	f.Add(int64(2), uint8(7), int8(-128), int8(0), math.Float64bits(2), 10)
	f.Add(int64(3), uint8(0), int8(5), int8(0), math.Float64bits(0.1), 1)
	f.Add(int64(4), uint8(11), int8(0), int8(-15), math.Float64bits(1e-18), 50)
	f.Add(int64(5), uint8(12), int8(32), int8(28), math.Float64bits(1e30), 3)
	f.Add(int64(6), uint8(2), int8(-128), int8(-128), math.Float64bits(0), 2000)
	f.Add(int64(7), uint8(17), int8(-128), int8(-35), math.Float64bits(math.Inf(1)), -1)
	f.Add(int64(8), uint8(22), int8(127), int8(120), math.Float64bits(math.MaxFloat64), 7)
	// 64-d and 128-d stores of a few hundred rows, the paper's peers: near
	// the origin, on the lattice, and far from it.
	f.Add(int64(9), uint8(3), int8(-128), int8(0), math.Float64bits(0.5), 10)
	f.Add(int64(10), uint8(4), int8(-128), int8(0), math.Float64bits(1), 10)
	f.Add(int64(11), uint8(9), int8(-128), int8(0), math.Float64bits(3), 50)
	f.Add(int64(12), uint8(14), int8(5), int8(0), math.Float64bits(0.1), 5)
	// 4k rows in each layout the dense form cuts on (idLayouts' last five),
	// every row a hit, and the 4097-id chunk again at 128-d.
	for layout := 6; layout <= 10; layout++ {
		shape := 20 * layout
		if shape < 128 {
			shape += 10 // a negligible negative offset, to reach 4k rows
		}
		f.Add(int64(layout), uint8(shape), int8(-128), int8(0), math.Float64bits(math.Inf(1)), 3)
	}
	f.Add(int64(13), uint8(184), int8(-128), int8(0), math.Float64bits(math.Inf(1)), 3)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, offExp, scaleExp int8, epsBits uint64, k int) {
		dim := []int{8, 16, 32, 64, 128}[shape%5]
		gen := clusteredRows
		if shape/5%2 == 1 {
			gen = latticeRows
		}
		off, scale := math.Ldexp(1, 4*int(offExp)), math.Ldexp(1, 4*int(scaleExp))
		if shape/10%2 == 1 {
			off = -off
		}
		layouts := append([]idLayout{shuffledIDs}, idLayouts()...)
		ids := layouts[int(shape/20)%len(layouts)]
		rng := rand.New(rand.NewSource(seed))
		built := 4096
		if shape < 128 {
			built = store.IndexMinRows + rng.Intn(2*store.BlockRows-store.IndexMinRows+1)
		}
		n := built + rng.Intn(built/8)
		perm := rng.Perm(n)
		st := store.New(dim)
		for i, r := range gen(rng, n, dim) {
			if i == built {
				LocalKNN(r, 1, st) // build the index; the rest is its tail
			}
			v := make([]float64, dim)
			for j := range v {
				v[j] = r[j]*scale + off
			}
			st.Append(ids.id(i, built, perm), v)
		}
		q := vec.Clone(st.Vec(rng.Intn(n)))
		if rng.Intn(2) == 0 {
			for j := range q {
				q[j] += 0.05 * scale * rng.NormFloat64()
			}
		}
		epss := []float64{math.Float64frombits(epsBits)}
		for range 3 {
			epss = append(epss, vec.Dist(q, st.Vec(rng.Intn(n))))
		}
		for _, eps := range epss {
			got, want := LocalRange(q, eps, st), sortedCopy(referenceLocalRange(q, eps, st))
			if !slices.Equal(got, want) {
				t.Fatalf("eps %v: LocalRange returned %d ids (ascending: %v), reference %d", eps, len(got), slices.IsSorted(got), len(want))
			}
			checkForm(t, LocalRangeIDs(q, eps, st), want)
		}
		if got, want := LocalKNN(q, k, st), referenceLocalKNN(q, k, st); !slices.Equal(got, want) {
			t.Fatalf("k %d: LocalKNN diverges from reference\n got %v\nwant %v", k, head(got), head(want))
		}
	})
}

// benchStore is a deterministic store of n 32-d rows from the clustered
// generator, shared by the fences and the microbenchmarks.
func benchStore(n int) *store.Store {
	rng := rand.New(rand.NewSource(int64(n)))
	st := store.New(32)
	for i, r := range clusteredRows(rng, n, 32) {
		st.Append(i, r)
	}
	return st
}

var benchSink int

func benchScan(b *testing.B, n int, scan func(q []float64, st *store.Store) int) {
	st := benchStore(n)
	rng := rand.New(rand.NewSource(1))
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = st.Vec(rng.Intn(n))
	}
	scan(queries[0], st) // index build is set-up, not scan time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += scan(queries[i%len(queries)], st)
	}
}

// benchRotating times scan over stores of n dim-wide §5.1 Markov rows (the
// benchmark workloads' corpus) in turn, so each scan finds its store's rows,
// sketches and bitmaps out of cache as a holder with several stores (or
// other work between fetches) does. Queries are stored rows and each radius
// the distance from its query to another stored row. Row i has id id(i).
func benchRotating(b *testing.B, stores, n, dim int, id func(row int) int, scan func(q []float64, eps float64, st *store.Store) int) {
	const perStore = 64
	type query struct {
		q   []float64
		eps float64
	}
	sts := make([]*store.Store, stores)
	queries := make([][]query, stores)
	rng := rand.New(rand.NewSource(1))
	for s := range sts {
		sts[s] = store.New(dim)
		for i, r := range markovRows(rng, n, dim) {
			sts[s].Append(id(i), r)
		}
		for range perStore {
			q := sts[s].Vec(rng.Intn(n))
			queries[s] = append(queries[s], query{q, vec.Dist(q, sts[s].Vec(rng.Intn(n)))})
		}
		scan(queries[s][0].q, 0, sts[s]) // index build is set-up, not scan time
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % stores
		qu := queries[s][i/stores%perStore]
		benchSink += scan(qu.q, qu.eps, sts[s])
	}
}

func rowID(row int) int { return row }

func BenchmarkLocalRange(b *testing.B) {
	for _, n := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("new/%d", n), func(b *testing.B) {
			benchScan(b, n, func(q []float64, st *store.Store) int { return len(LocalRange(q, 0.15, st)) })
		})
		b.Run(fmt.Sprintf("reference/%d", n), func(b *testing.B) {
			benchScan(b, n, func(q []float64, st *store.Store) int { return len(referenceLocalRange(q, 0.15, st)) })
		})
	}
	b.Run("new/4x50000-rotating", func(b *testing.B) {
		benchRotating(b, 4, 50000, 32, rowID, func(q []float64, eps float64, st *store.Store) int { return len(LocalRange(q, eps, st)) })
	})
	// Ids 64 apart: a store's hits span 49 chunks, more than a holder's
	// chunk scratch holds, so they are listed in row order, where they
	// already ascend. Shuffled, the same ids also need sortIDs.
	spread := func(row int) int { return row * 64 }
	b.Run("new/4x50000-rotating-spread", func(b *testing.B) {
		benchRotating(b, 4, 50000, 32, spread, func(q []float64, eps float64, st *store.Store) int { return len(LocalRange(q, eps, st)) })
	})
	perm := rand.New(rand.NewSource(2)).Perm(50000)
	shuffled := func(row int) int { return perm[row] * 64 }
	b.Run("new/4x50000-rotating-shuffled", func(b *testing.B) {
		benchRotating(b, 4, 50000, 32, shuffled, func(q []float64, eps float64, st *store.Store) int { return len(LocalRange(q, eps, st)) })
	})
	// disseminate's stores: 64 of 500 128-d rows, in turn, answering in the
	// form a fetch carries.
	b.Run("new/64x500-d128-rotating", func(b *testing.B) {
		benchRotating(b, 64, 500, 128, rowID, func(q []float64, eps float64, st *store.Store) int { return LocalRangeIDs(q, eps, st).Len() })
	})
	b.Run("reference/64x500-d128-rotating", func(b *testing.B) {
		benchRotating(b, 64, 500, 128, rowID, func(q []float64, eps float64, st *store.Store) int { return len(referenceLocalRange(q, eps, st)) })
	})
}

func BenchmarkLocalKNN(b *testing.B) {
	for _, n := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("new/%d", n), func(b *testing.B) {
			benchScan(b, n, func(q []float64, st *store.Store) int { return len(LocalKNN(q, 5, st)) })
		})
		b.Run(fmt.Sprintf("reference/%d", n), func(b *testing.B) {
			benchScan(b, n, func(q []float64, st *store.Store) int { return len(referenceLocalKNN(q, 5, st)) })
		})
	}
	b.Run("new/4x50000-rotating", func(b *testing.B) {
		benchRotating(b, 4, 50000, 32, rowID, func(q []float64, _ float64, st *store.Store) int { return len(LocalKNN(q, 10, st)) })
	})
	// disseminate's stores: 64 of 500 128-d rows, in turn.
	b.Run("new/64x500-d128-rotating", func(b *testing.B) {
		benchRotating(b, 64, 500, 128, rowID, func(q []float64, _ float64, st *store.Store) int { return len(LocalKNN(q, 10, st)) })
	})
	b.Run("reference/64x500-d128-rotating", func(b *testing.B) {
		benchRotating(b, 64, 500, 128, rowID, func(q []float64, _ float64, st *store.Store) int { return len(referenceLocalKNN(q, 10, st)) })
	})
	// disseminate's own indexed stores, by row count, at both ends of the
	// per-peer k the engine asks (ceil(C·k·share) with k = 10, C = 1): the
	// shipped scan through the index, and the linear scan a store below
	// store.IndexMinRows gets. "own" queries are the store's rows; "pool"
	// queries are corpus rows drawn as the workload's query pool draws them,
	// mostly from other peers' interest clusters.
	for _, band := range [][2]int{{256, 512}, {512, 1024}, {1024, 1 << 30}} {
		for _, k := range []int{1, 10} {
			for _, pool := range []bool{false, true} {
				name := fmt.Sprintf("dissem-%d-%d-k%d-own", band[0], min(band[1], 9999), k)
				if pool {
					name = strings.Replace(name, "-own", "-pool", 1)
				}
				b.Run("new/"+name, func(b *testing.B) {
					benchStores(b, disseminateStores(band[0], band[1]), pool, func(q []float64, st *store.Store) int { return len(LocalKNN(q, k, st)) })
				})
				b.Run("linear/"+name, func(b *testing.B) {
					benchStores(b, disseminateStores(band[0], band[1]), pool, func(q []float64, st *store.Store) int { return len(linearKNN(q, k, st)) })
				})
			}
		}
	}
}

// linearKNN is LocalKNN's scan of a store with no index — every row, each
// distance capped at the heap's bound — run over any store.
func linearKNN(q []float64, k int, st *store.Store) []ItemDist {
	ids := st.IDs()
	top := newTopK(min(k, len(ids)))
	for i := range ids {
		if d := vec.Dist2Capped(q, st.Vec(i), top.bound); d <= top.limit {
			top.offer(ids[i], d)
		}
	}
	return top.sorted()
}

// disseminatePeers is the disseminate workload's corpus as its 64 peers hold
// it: 32,000 §5.1 Markov rows of 128 dims, dealt by dataset.AssignToPeers
// from the same seed (the experiments' markovData), each peer's rows in the
// order it adds them.
var disseminatePeers = sync.OnceValue(func() [][][]float64 {
	rng := rand.New(rand.NewSource(1))
	data := dataset.Markov(dataset.MarkovConfig{N: 64 * 500, Dim: 128}, rng)
	asg := dataset.AssignToPeers(data, dataset.AssignConfig{Peers: 64}, rng)
	peers := make([][][]float64, len(asg.PeerItems))
	for p, items := range asg.PeerItems {
		for _, id := range items {
			peers[p] = append(peers[p], data[id])
		}
	}
	return peers
})

// disseminateStores builds a store of each disseminate peer holding lo to
// hi-1 rows.
func disseminateStores(lo, hi int) []*store.Store {
	var sts []*store.Store
	for _, rows := range disseminatePeers() {
		if len(rows) < lo || len(rows) >= hi {
			continue
		}
		st := store.New(128)
		for i, r := range rows {
			st.Append(i, r)
		}
		sts = append(sts, st)
	}
	return sts
}

// benchStores times scan over the stores in turn. Each store's queries are
// its own rows, or with pool corpus rows drawn from every peer.
func benchStores(b *testing.B, sts []*store.Store, pool bool, scan func(q []float64, st *store.Store) int) {
	if len(sts) == 0 {
		b.Skip("no store in the band")
	}
	const perStore = 64
	peers := disseminatePeers()
	queries := make([][][]float64, len(sts))
	rng := rand.New(rand.NewSource(1))
	for s, st := range sts {
		for range perStore {
			q := st.Vec(rng.Intn(st.Len()))
			if pool {
				rows := peers[rng.Intn(len(peers))]
				for len(rows) == 0 {
					rows = peers[rng.Intn(len(peers))]
				}
				q = rows[rng.Intn(len(rows))]
			}
			queries[s] = append(queries[s], q)
		}
		scan(queries[s][0], st) // index build is set-up, not scan time
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % len(sts)
		benchSink += scan(queries[s][i/len(sts)%perStore], sts[s])
	}
	b.ReportMetric(float64(len(sts)), "stores")
}
