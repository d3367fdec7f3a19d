package store

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"hyperm/internal/vec"
)

func randomStore(rng *rand.Rand, dim, n int) *Store {
	s := New(dim)
	appendRandom(s, rng, n)
	return s
}

func appendRandom(s *Store, rng *rand.Rand, n int) {
	v := make([]float64, s.Dim())
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		s.Append(s.Len(), v)
	}
}

// checkIndex asserts what scans rely on: the groups partition exactly the
// rows [0, indexed), each group's rows ascend in centroid distance, the
// sampled shells bracket the rows they stand for, and a group's sketches are
// its rows' own, in its row order.
func checkIndex(t *testing.T, s *Store, groups []Group, indexed int) {
	t.Helper()
	if indexed > s.Len() {
		t.Fatalf("index covers %d rows of a %d-row store", indexed, s.Len())
	}
	seen := make([]bool, indexed)
	for gi := range groups {
		g := &groups[gi]
		if len(g.Rows) == 0 {
			t.Fatalf("group %d is empty", gi)
		}
		if want := (len(g.Rows)+ShellRows-1)/ShellRows + 1; len(g.Shells) != want {
			t.Fatalf("group %d: %d shell edges for %d rows, want %d", gi, len(g.Shells), len(g.Rows), want)
		}
		if g.Sketch != nil && len(g.Sketch) != len(g.Rows) {
			t.Fatalf("group %d: %d sketches for %d rows", gi, len(g.Sketch), len(g.Rows))
		}
		prev := 0.0
		for i, r := range g.Rows {
			if g.Sketch != nil {
				for b, v := range SketchOf(s.Vec(int(r))) {
					if g.Sketch[i][b] != float32(v) {
						t.Fatalf("group %d row %d: sketch %v, row's is %v", gi, i, g.Sketch[i], SketchOf(s.Vec(int(r))))
					}
				}
			}
			if int(r) >= indexed || seen[r] {
				t.Fatalf("group %d: row %d out of range or in two groups", gi, r)
			}
			seen[r] = true
			d := vec.Dist(g.Centroid, s.Vec(int(r)))
			if d < prev {
				t.Fatalf("group %d: rows not in ascending centroid distance at %d", gi, i)
			}
			prev = d
			if j := i / ShellRows; d < g.Shells[j] || d > g.Shells[j+1] {
				t.Fatalf("group %d row %d: distance %v outside shell %d [%v, %v]", gi, i, d, j, g.Shells[j], g.Shells[j+1])
			}
		}
		if last := g.Shells[len(g.Shells)-1]; last != prev {
			t.Fatalf("group %d: last shell edge %v, farthest member %v", gi, last, prev)
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("row %d is in no group", r)
		}
	}
}

func TestScanIndexLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomStore(rng, 5, IndexMinRows-1)
	if groups, indexed := s.ScanGroups(); groups != nil || indexed != 0 {
		t.Fatalf("store below IndexMinRows got %d groups over %d rows", len(groups), indexed)
	}

	appendRandom(s, rng, 1)
	groups, indexed := s.ScanGroups()
	if len(groups) != 2 || indexed != IndexMinRows {
		t.Fatalf("first build: %d groups over %d rows", len(groups), indexed)
	}
	checkIndex(t, s, groups, indexed)

	// A short tail leaves the index alone; the rows are the caller's.
	appendRandom(s, rng, IndexMinRows/indexTailDiv)
	if _, again := s.ScanGroups(); again != indexed {
		t.Fatalf("index rebuilt at %d rows with a tail of 1/%d", again, indexTailDiv)
	}
	// A clone scans through the same index: the covered prefix is shared.
	c := s.Clone()
	if cg, ci := c.ScanGroups(); ci != indexed || &cg[0] != &groups[0] {
		t.Fatal("clone did not inherit the index")
	}
	// One row more and the tail has outgrown it.
	appendRandom(s, rng, 1)
	groups, rebuilt := s.ScanGroups()
	if rebuilt != s.Len() {
		t.Fatalf("index covers %d rows after outgrowing, store has %d", rebuilt, s.Len())
	}
	checkIndex(t, s, groups, rebuilt)
	if _, ci := c.ScanGroups(); ci != indexed {
		t.Fatal("rebuild of the original reached the clone")
	}
	t.Run("sketch-at-dim32", checkSketchCost)
}

// TestScanIndexGroups pins how many pivot groups a first build forms and what
// they cost: two from IndexMinRows rows up to 2·BlockRows, then one per
// BlockRows rows. Per row the index holds a row number and a sixteenth of a
// shell edge, per group a centroid, four slice headers and up to two more
// edges; from 2·BlockRows rows the whole is at most 5 B/row.
func TestScanIndexGroups(t *testing.T) {
	const dim = 5
	const perGroup = 4*3*8 + dim*8 + 2*8
	for _, tc := range []struct{ rows, groups int }{
		{IndexMinRows, 2},
		{1000, 2},
		{2 * BlockRows, 2},
		{3*BlockRows + 500, 3},
		{8*BlockRows + BlockRows/4, 8},
	} {
		s := randomStore(rand.New(rand.NewSource(int64(tc.rows))), dim, tc.rows)
		plain := s.HeapBytes()
		groups, indexed := s.ScanGroups()
		if len(groups) != tc.groups || indexed != tc.rows {
			t.Fatalf("%d rows: %d groups over %d rows, want %d groups", tc.rows, len(groups), indexed, tc.groups)
		}
		checkIndex(t, s, groups, indexed)
		limit := 5*tc.rows + tc.groups*perGroup
		if tc.rows >= 2*BlockRows {
			limit = 5 * tc.rows
		}
		if cost := s.HeapBytes() - plain; cost > limit {
			t.Errorf("%d rows: index costs %d B (%.2f B/row), want <= %d", tc.rows, cost, float64(cost)/float64(tc.rows), limit)
		}
	}
}

// checkSketchCost fences the index at the shipped shape, dim 32, where every
// row also gets a sketch: the parts fenced above stay within their bound, the
// sketch costs exactly 4·(SketchBlocks+1) B/row, HeapBytes counts both, and a
// clone shares the sketch with the index. A dim-31 store of the same size has
// no sketch and one centroid coordinate less per group.
func checkSketchCost(t *testing.T) {
	const n, groups = 2 * BlockRows, 2
	build := func(dim int) (*Store, []Group, int) {
		s := randomStore(rand.New(rand.NewSource(5)), dim, n)
		plain := s.HeapBytes()
		g, indexed := s.ScanGroups()
		if len(g) != groups || indexed != n {
			t.Fatalf("dim %d: %d groups over %d rows", dim, len(g), indexed)
		}
		checkIndex(t, s, g, indexed)
		return s, g, s.HeapBytes() - plain
	}
	s32, g32, cost32 := build(32)
	_, g31, cost31 := build(31)
	for gi := range g32 {
		if g32[gi].Sketch == nil || g31[gi].Sketch != nil {
			t.Fatalf("group %d: sketch at dim 32 %v, at dim 31 %v", gi, g32[gi].Sketch != nil, g31[gi].Sketch != nil)
		}
	}
	const sketchBytes = 4 * (SketchBlocks + 1)
	if size := unsafe.Sizeof(Sketch{}); size != sketchBytes {
		t.Fatalf("a sketch is %d bytes, want %d", size, sketchBytes)
	}
	if got := cost32 - cost31 - groups*8; got != sketchBytes*n {
		t.Errorf("sketch costs %d bytes in HeapBytes over %d rows, want %d", got, n, sketchBytes*n)
	}
	if perRow := float64(cost32-sketchBytes*n) / n; perRow > 5 {
		t.Errorf("index without its sketch costs %.2f B/row, want <= 5", perRow)
	}
	c := s32.Clone()
	if cg, _ := c.ScanGroups(); &cg[0].Sketch[0] != &g32[0].Sketch[0] {
		t.Fatal("clone does not share the sketch")
	}
}

// TestScanIndexDegenerateRows: duplicate pivots leave no empty group behind,
// and a group holding a non-finite row gives up its bounds instead of
// sorting a NaN into a shell.
func TestScanIndexDegenerateRows(t *testing.T) {
	s := New(2)
	for i := 0; i < IndexMinRows; i++ {
		s.Append(i, []float64{1, 1}) // every pivot identical
	}
	groups, indexed := s.ScanGroups()
	if len(groups) != 1 {
		t.Fatalf("%d groups from identical rows, want 1", len(groups))
	}
	checkIndex(t, s, groups, indexed)

	s = New(2)
	for i := 0; i < IndexMinRows; i++ {
		s.Append(i, []float64{float64(i % 7), math.NaN()})
	}
	for _, g := range func() []Group { g, _ := s.ScanGroups(); return g }() {
		if lo, hi := g.Window(1, 2); g.Shells != nil || lo != 0 || hi != len(g.Rows) {
			t.Fatalf("group with NaN rows keeps bounds: shells %v, window [%d,%d) of %d", g.Shells, lo, hi, len(g.Rows))
		}
	}
}

func TestGroupWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomStore(rng, 3, 2*BlockRows)
	groups, _ := s.ScanGroups()
	for gi := range groups {
		g := &groups[gi]
		dist := func(i int) float64 { return vec.Dist(g.Centroid, s.Vec(int(g.Rows[i]))) }
		r := g.Shells[len(g.Shells)-1]
		bounds := []float64{math.Inf(-1), -1, 0, r / 3, r / 2, dist(len(g.Rows) / 2), r, 2 * r, math.Inf(1), math.NaN()}
		for _, inner := range bounds {
			for _, outer := range bounds {
				lo, hi := g.Window(inner, outer)
				if lo < 0 || hi > len(g.Rows) || (lo > hi && inner <= outer) {
					t.Fatalf("Window(%v, %v) = [%d, %d) of %d rows", inner, outer, lo, hi, len(g.Rows))
				}
				for i := 0; i < lo; i++ {
					if !(dist(i) < inner) {
						t.Fatalf("Window(%v, %v): row %d before lo=%d is at %v", inner, outer, i, lo, dist(i))
					}
				}
				for i := max(hi, lo); i < len(g.Rows); i++ {
					if !(dist(i) > outer) {
						t.Fatalf("Window(%v, %v): row %d from hi=%d on is at %v", inner, outer, i, hi, dist(i))
					}
				}
			}
		}
		// The window is no wider than whole shells demand.
		if lo, hi := g.Window(r/2, r/2); hi-lo > 2*ShellRows {
			t.Fatalf("Window around one distance spans %d rows", hi-lo)
		}
	}
}

// TestScanGroupsConcurrent races several scanners against one appender, under
// the reader/writer lock a store's owner provides, across the first build
// and a rebuild. Every index a scanner sees must be whole; the race detector
// checks the rest.
func TestScanGroupsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomStore(rng, 4, IndexMinRows-100)
	final := IndexMinRows + IndexMinRows/indexTailDiv + 100
	var mu sync.RWMutex
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.RLock()
				groups, indexed := s.ScanGroups()
				n, covered := s.Len(), 0
				for gi := range groups {
					covered += len(groups[gi].Rows)
				}
				mu.RUnlock()
				if covered != indexed || indexed > n {
					t.Errorf("scan saw %d rows in groups, indexed %d, store %d", covered, indexed, n)
					return
				}
			}
		}()
	}
	for s.Len() < final {
		mu.Lock()
		appendRandom(s, rng, 1)
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	groups, indexed := s.ScanGroups()
	if (s.Len()-indexed)*indexTailDiv > indexed {
		t.Fatalf("index left stale: covers %d of %d rows", indexed, s.Len())
	}
	checkIndex(t, s, groups, indexed)
}
