package route

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"hyperm/internal/overlay"
)

// The hand-built topology used throughout: four unit-square quadrants.
//
//	+-----+-----+
//	|  2  |  3  |
//	+-----+-----+
//	|  0  |  1  |
//	+-----+-----+
//
// Node 0 owns [0,.5)x[0,.5), 1 owns [.5,1)x[0,.5), 2 owns [0,.5)x[.5,1),
// 3 owns [.5,1)x[.5,1). Every node neighbors every other except its
// diagonal opposite.
func quadrants() []NodeView {
	z := func(lo0, lo1 float64) []Zone {
		return []Zone{{Lo: []float64{lo0, lo1}, Hi: []float64{lo0 + 0.5, lo1 + 0.5}}}
	}
	zones := [][]Zone{z(0, 0), z(0.5, 0), z(0, 0.5), z(0.5, 0.5)}
	nbs := [][]int{{1, 2}, {0, 3}, {0, 3}, {1, 2}}
	views := make([]NodeView, 4)
	for id := range views {
		views[id] = NodeView{ID: id, Zones: zones[id]}
		for _, nb := range nbs[id] {
			views[id].Neighbors = append(views[id].Neighbors, NeighborView{ID: nb, Zones: zones[nb]})
		}
	}
	return views
}

type sliceSource []NodeView

func (s sliceSource) View(id int) (NodeView, error) { return s[id], nil }

func TestRouterReachesOwner(t *testing.T) {
	views := quadrants()
	r := NewRouter(views[0], []float64{0.75, 0.75}, 100)
	var path []int
	for {
		step, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if step.Kind == StepDone {
			break
		}
		if step.Kind != StepRouteHop {
			t.Fatalf("unexpected step kind %v", step.Kind)
		}
		path = append(path, step.To)
		r.Feed(views[step.To], 1)
	}
	if owner := r.Owner(); owner.ID != 3 {
		t.Fatalf("owner = %d, want 3", owner.ID)
	}
	// Greedy from 0 toward (0.75,0.75): neighbors 1 and 2 are equidistant,
	// first strict minimum wins, so the path goes through 1.
	if want := []int{1, 3}; !reflect.DeepEqual(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	if r.Hops() != 2 {
		t.Fatalf("hops = %d, want 2", r.Hops())
	}
}

func TestRouterImmediateOwner(t *testing.T) {
	views := quadrants()
	r := NewRouter(views[2], []float64{0.25, 0.75}, 100)
	step, err := r.Next()
	if err != nil || step.Kind != StepDone {
		t.Fatalf("Next = %+v, %v; want immediate StepDone", step, err)
	}
	if r.Hops() != 0 {
		t.Fatalf("hops = %d, want 0", r.Hops())
	}
}

func TestRouterDriverHopAccounting(t *testing.T) {
	// The driver reports 3 hops per contact (retransmitting radio link);
	// the limit counts driver hops, not contacts.
	views := quadrants()
	r := NewRouter(views[0], []float64{0.75, 0.75}, 100)
	for {
		step, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if step.Kind == StepDone {
			break
		}
		r.Feed(views[step.To], 3)
	}
	if r.Hops() != 6 {
		t.Fatalf("hops = %d, want 6", r.Hops())
	}
}

func TestRouterLoopLimit(t *testing.T) {
	// Two nodes whose zones do not cover the key: routing ping-pongs until
	// the driver-accounted hop total exceeds the limit.
	zs := []Zone{{Lo: []float64{0, 0}, Hi: []float64{0.5, 0.5}}}
	a := NodeView{ID: 0, Zones: zs, Neighbors: []NeighborView{{ID: 1, Zones: zs}}}
	b := NodeView{ID: 1, Zones: zs, Neighbors: []NeighborView{{ID: 0, Zones: zs}}}
	views := []NodeView{a, b}
	r := NewRouter(a, []float64{0.9, 0.9}, 4)
	for {
		step, err := r.Next()
		if errors.Is(err, ErrLoopLimit) {
			// ResolveOwner completes the route out-of-band.
			owner := NodeView{ID: 9, Zones: []Zone{{Lo: []float64{0.5, 0.5}, Hi: []float64{1, 1}}}}
			r.ResolveOwner(owner, 1)
			continue
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if step.Kind == StepDone {
			if step.From != 9 {
				t.Fatalf("resolved owner = %d, want 9", step.From)
			}
			break
		}
		r.Feed(views[step.To], 1)
	}
	if r.Hops() != 6 { // limit 4 exceeded at hops=5, +1 for the resolve
		t.Fatalf("hops = %d, want 6", r.Hops())
	}
}

func TestRouterNoNeighbor(t *testing.T) {
	lone := NodeView{ID: 0, Zones: []Zone{{Lo: []float64{0, 0}, Hi: []float64{0.5, 0.5}}}}
	r := NewRouter(lone, []float64{0.9, 0.9}, 100)
	if _, err := r.Next(); !errors.Is(err, ErrNoNeighbor) {
		t.Fatalf("Next err = %v, want ErrNoNeighbor", err)
	}
}

func TestRouterVisitedPenalty(t *testing.T) {
	// A strip of three zones a|b|c with the key (0.9, 0.5) beyond c, wrapped
	// near a across the torus seam. From b, visited a is nearest (torus dist
	// 0.1 vs c's 0.15) but the penalty steers the route to unvisited c; from
	// c, the only neighbor is visited b, taken anyway as a last resort.
	za := []Zone{{Lo: []float64{0, 0}, Hi: []float64{0.25, 1}}}
	zb := []Zone{{Lo: []float64{0.25, 0}, Hi: []float64{0.5, 1}}}
	zc := []Zone{{Lo: []float64{0.5, 0}, Hi: []float64{0.75, 1}}}
	a := NodeView{ID: 0, Zones: za, Neighbors: []NeighborView{{ID: 1, Zones: zb}}}
	b := NodeView{ID: 1, Zones: zb, Neighbors: []NeighborView{{ID: 0, Zones: za}, {ID: 2, Zones: zc}}}
	c := NodeView{ID: 2, Zones: zc, Neighbors: []NeighborView{{ID: 1, Zones: zb}}}
	key := []float64{0.9, 0.5}

	r := NewRouter(a, key, 100)
	step, err := r.Next()
	if err != nil || step.To != 1 {
		t.Fatalf("step = %+v, %v; want hop to 1", step, err)
	}
	r.Feed(b, 1)
	step, err = r.Next()
	if err != nil || step.To != 2 {
		t.Fatalf("step = %+v, %v; want penalized hop to 2, not visited 0", step, err)
	}
	r.Feed(c, 1)
	step, err = r.Next()
	if err != nil || step.To != 1 {
		t.Fatalf("step = %+v, %v; want last-resort revisit of 1", step, err)
	}
}

func TestRouterMisusePanics(t *testing.T) {
	views := quadrants()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRouter(views[0], []float64{0.75, 0.75}, 100)
	mustPanic("Feed without pending", func() { r.Feed(views[1], 1) })
	mustPanic("ResolveOwner without stall", func() { r.ResolveOwner(views[1], 1) })
	mustPanic("Owner before done", func() { r.Owner() })
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	mustPanic("Next before Feed", func() { r.Next() })
}

func TestFloodVisitsIntersectingZones(t *testing.T) {
	views := quadrants()
	// Sphere at the center of node 0's zone, radius large enough to touch 1
	// and 2 but not 3's zone... at (0.25,0.25) r=0.3: dist to zone 3 is
	// sqrt(0.0625*2)≈0.354 > 0.3, dist to zones 1,2 is 0.05 < 0.3.
	f := NewFlood(views[0], []float64{0.25, 0.25}, 0.3)
	var visits [][2]int
	for {
		step := f.Next()
		if step.Kind == StepDone {
			break
		}
		visits = append(visits, [2]int{step.From, step.To})
		f.Feed(views[step.To])
	}
	want := [][2]int{{0, 1}, {0, 2}}
	if !reflect.DeepEqual(visits, want) {
		t.Fatalf("visits = %v, want %v", visits, want)
	}
}

func TestFloodSkipAbandonsRegion(t *testing.T) {
	views := quadrants()
	// Sphere covering everything: without Skip all three others are visited.
	f := NewFlood(views[0], []float64{0.25, 0.25}, 1)
	var visited []int
	for {
		step := f.Next()
		if step.Kind == StepDone {
			break
		}
		if step.To == 1 {
			f.Skip() // message to 1 lost; 3 is still reachable via 2
			continue
		}
		visited = append(visited, step.To)
		f.Feed(views[step.To])
	}
	if want := []int{2, 3}; !reflect.DeepEqual(visited, want) {
		t.Fatalf("visited = %v, want %v", visited, want)
	}
}

func TestFloodNeverRevisits(t *testing.T) {
	views := quadrants()
	f := NewFlood(views[0], []float64{0.5, 0.5}, 1)
	seen := map[int]bool{}
	for {
		step := f.Next()
		if step.Kind == StepDone {
			break
		}
		if seen[step.To] {
			t.Fatalf("node %d visited twice", step.To)
		}
		seen[step.To] = true
		f.Feed(views[step.To])
	}
	if len(seen) != 3 {
		t.Fatalf("visited %d nodes, want 3", len(seen))
	}
}

func TestFloodMisusePanics(t *testing.T) {
	views := quadrants()
	f := NewFlood(views[0], []float64{0.25, 0.25}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Next before Feed/Skip did not panic")
		}
	}()
	f.Next()
	f.Next()
}

// searchViews builds the quadrant topology with records: node 3 owns a
// sphere entry replicated to node 1, node 0 owns a point entry.
func searchViews() []NodeView {
	views := quadrants()
	sphere := RecordView{Seq: 0, Entry: overlay.Entry{Key: []float64{0.6, 0.6}, Radius: 0.2, Payload: "sphere"}}
	point := RecordView{Seq: 1, Entry: overlay.Entry{Key: []float64{0.1, 0.1}, Payload: "point"}}
	views[3].Owned = []RecordView{sphere}
	views[1].Replicas = []RecordView{sphere}
	views[0].Owned = []RecordView{point}
	return views
}

// runSerial is the serial reference drive: one Next, one View, one Feed at a
// time, a hop per contact. Independent of RunAlpha, so the Next-vs-NextBatch
// differentials compare two drivers, not one with itself.
func runSerial(s *Search, src ViewSource) ([]overlay.Entry, int, error) {
	for {
		step, err := s.Next()
		if err != nil || step.Kind == StepDone {
			return s.Results(), s.Hops(), err
		}
		v, err := src.View(step.To)
		if err != nil {
			return nil, s.Hops(), err
		}
		s.Feed(v, 1)
	}
}

func TestSearchCollectsAndDeduplicates(t *testing.T) {
	views := searchViews()
	// Query sphere centered in node 1's zone touching every zone: the
	// replica on 1 (the owner) is collected first; the original on 3 is
	// deduplicated by sequence number; the far point on 0 does not match.
	s := NewSearch(views[0], []float64{0.6, 0.25}, 0.4, 100)
	entries, hops, err := runSerial(s, sliceSource(views))
	if err != nil {
		t.Fatalf("runSerial: %v", err)
	}
	if len(entries) != 1 || entries[0].Payload != "sphere" {
		t.Fatalf("entries = %v, want the single sphere entry", entries)
	}
	// 1 routing hop (0→1) + 3 flood visits (1's wave: 0,3; then 2).
	if hops != 4 {
		t.Fatalf("hops = %d, want 4", hops)
	}
}

func TestSearchOwnerRecordsCollectedWithoutFloodHop(t *testing.T) {
	views := searchViews()
	// Zero-radius query at the point entry: owner 0 contributes its record
	// at the phase transition; no flood visit matches r=0 beyond the owner.
	s := NewSearch(views[0], []float64{0.1, 0.1}, 0, 100)
	entries, hops, err := runSerial(s, sliceSource(views))
	if err != nil {
		t.Fatalf("runSerial: %v", err)
	}
	if len(entries) != 1 || entries[0].Payload != "point" {
		t.Fatalf("entries = %v, want the single point entry", entries)
	}
	if hops != 0 {
		t.Fatalf("hops = %d, want 0", hops)
	}
}

func TestSearchSentinelsSurface(t *testing.T) {
	lone := NodeView{ID: 0, Zones: []Zone{{Lo: []float64{0, 0}, Hi: []float64{0.5, 0.5}}}}
	s := NewSearch(lone, []float64{0.9, 0.9}, 0.1, 100)
	_, _, err := runSerial(s, sliceSource([]NodeView{lone}))
	if !errors.Is(err, ErrNoNeighbor) {
		t.Fatalf("runSerial err = %v, want ErrNoNeighbor", err)
	}
}

type failingSource struct{ err error }

func (f failingSource) View(int) (NodeView, error) { return NodeView{}, f.err }

func TestRunSourceFailureAborts(t *testing.T) {
	views := quadrants()
	boom := errors.New("boom")
	s := NewSearch(views[0], []float64{0.75, 0.75}, 0.1, 100)
	_, _, err := RunAlpha(s, failingSource{err: boom}, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("RunAlpha err = %v, want boom", err)
	}
}

func TestSearchSkipChargesHops(t *testing.T) {
	views := searchViews()
	s := NewSearch(views[1], []float64{0.6, 0.25}, 0.4, 100)
	var total int
	for {
		step, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if step.Kind == StepDone {
			break
		}
		if step.Kind == StepFloodVisit && step.To == 3 {
			s.Skip(1) // lose the message carrying the only original
			total++
			continue
		}
		s.Feed(views[step.To], 1)
		total++
	}
	// The replica on the owner still answers: loss degrades coverage, not
	// correctness of what was reachable.
	if entries := s.Results(); len(entries) != 1 || entries[0].Payload != "sphere" {
		t.Fatalf("entries = %v, want the replica's sphere entry", entries)
	}
	if s.Hops() != total {
		t.Fatalf("Hops() = %d, want %d (skips still charged)", s.Hops(), total)
	}
}

// TestSplitZoneRefusesAtFloat64Floor halves one zone toward a fixed point
// until SplitZone refuses: every split before that yields two non-empty
// halves that re-form the zone around the join point, and the refusal comes
// only once the side being split has no float64 strictly inside it.
func TestSplitZoneRefusesAtFloat64Floor(t *testing.T) {
	z := Zone{Lo: []float64{0, 0.25}, Hi: []float64{1, 0.5}}
	point := []float64{0.7, 0.3}
	for splits := 0; ; splits++ {
		if splits > 256 {
			t.Fatal("SplitZone never refused")
		}
		kept, taken, err := SplitZone(z, point)
		if err != nil {
			if !errors.Is(err, ErrZoneTooSmall) {
				t.Fatalf("split %d: %v", splits, err)
			}
			d := 0 // the longest side, lowest index on ties
			if z.Hi[1]-z.Lo[1] > z.Hi[0]-z.Lo[0] {
				d = 1
			}
			if next := math.Nextafter(z.Lo[d], 2); next != z.Hi[d] {
				t.Fatalf("refused %v, whose side %d still holds %v", z, d, next)
			}
			return
		}
		for _, h := range []Zone{kept, taken} {
			for d := range h.Lo {
				if !(h.Lo[d] < h.Hi[d]) {
					t.Fatalf("split %d of %v produced the empty half %v", splits, z, h)
				}
			}
		}
		if u, ok := UnionBox(kept, taken); !ok || !reflect.DeepEqual(u, z) || !taken.Contains(point) {
			t.Fatalf("split %d of %v: halves %v / %v do not re-form it around the join point", splits, z, kept, taken)
		}
		z = taken
	}
}
