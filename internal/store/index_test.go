package store

import (
	"math"
	"math/rand"
	"sync"
	"testing"

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
// rows [0, indexed), each group's rows ascend in centroid distance, and the
// sampled shells bracket the rows they stand for.
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
		prev := 0.0
		for i, r := range g.Rows {
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
	plain := s.HeapBytes()

	appendRandom(s, rng, 1)
	groups, indexed := s.ScanGroups()
	if len(groups) != IndexMinRows/BlockRows || indexed != IndexMinRows {
		t.Fatalf("first build: %d groups over %d rows", len(groups), indexed)
	}
	checkIndex(t, s, groups, indexed)
	if perRow := float64(s.HeapBytes()-plain) / float64(indexed); perRow > 10 {
		t.Errorf("index costs %.1f B/row, want <= 10", perRow)
	}

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
}

// TestScanIndexIDOrder: whatever order ids arrive in, ScanIndex lists exactly
// the covered rows by ascending (id, row), from the same build as the groups.
func TestScanIndexIDOrder(t *testing.T) {
	const n = IndexMinRows + 300
	rng := rand.New(rand.NewSource(4))
	perm := rng.Perm(n)
	layouts := map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return -i },
		"shuffled":   func(i int) int { return perm[i] - n/2 },
		"duplicates": func(i int) int { return perm[i] % 7 },
	}
	for name, idOf := range layouts {
		s := New(2)
		for i := 0; i < n; i++ {
			s.Append(idOf(i), []float64{rng.Float64(), rng.Float64()})
		}
		groups, byID := s.ScanIndex()
		if g, indexed := s.ScanGroups(); indexed != len(byID) || &g[0] != &groups[0] {
			t.Fatalf("%s: ScanGroups and ScanIndex disagree", name)
		}
		seen := make([]bool, len(byID))
		for p, r := range byID {
			if seen[r] {
				t.Fatalf("%s: row %d listed twice", name, r)
			}
			seen[r] = true
			if p == 0 {
				continue
			}
			prev := byID[p-1]
			if a, b := s.ID(int(prev)), s.ID(int(r)); a > b || (a == b && prev > r) {
				t.Fatalf("%s: position %d: (id %d, row %d) after (id %d, row %d)", name, p, b, r, a, prev)
			}
		}
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
	s := randomStore(rng, 3, IndexMinRows)
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
