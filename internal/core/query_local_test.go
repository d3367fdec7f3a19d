package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

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

// indexState names one way a store can reach a scan: how many rows it held
// when a scan last built the index, and how many it holds now.
type indexState struct {
	name        string
	built, rows int // built == 0: never scanned before
}

func indexStates() []indexState {
	const m = store.IndexMinRows
	return []indexState{
		{"empty", 0, 0},
		{"one-row", 0, 1},
		{"below-threshold", 0, m - 1},
		{"at-threshold-first-scan", 0, m},
		{"above-threshold-first-scan", 0, m + 700},
		{"fresh", m + 700, m + 700},
		{"stale-tail", m + 700, m + 700 + 40},                    // tail scanned linearly
		{"crossed-threshold-since", m - 5, m + 5},                // absent at first scan, built now
		{"rebuilt-after-growth", m, m + m/2},                     // tail outgrew the index
		{"several-groups-stale", 4 * m, 4*m + store.BlockRows/4}, // 8 pivots
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
	}
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
		// One and two dimensions make the triangle inequality tight: rows sit
		// on the line through query and centroid, right at the window edges.
		{"clustered1", 1, clusteredRows, shuffledIDs},
		{"lattice2", 2, latticeRows, shuffledIDs},
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
				if is.rows >= store.IndexMinRows && (len(groups) == 0 || indexed > n) {
					t.Fatalf("store of %d rows: %d groups covering %d rows", n, len(groups), indexed)
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
	const n = store.IndexMinRows // two pivots: rows n/4 and 3n/4
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

func BenchmarkLocalRange(b *testing.B) {
	for _, n := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("new/%d", n), func(b *testing.B) {
			benchScan(b, n, func(q []float64, st *store.Store) int { return len(LocalRange(q, 0.15, st)) })
		})
		b.Run(fmt.Sprintf("reference/%d", n), func(b *testing.B) {
			benchScan(b, n, func(q []float64, st *store.Store) int { return len(referenceLocalRange(q, 0.15, st)) })
		})
	}
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
}
