package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"hyperm/internal/overlay"
)

// fetchBackend scores every peer on one cluster around the origin (peer p
// holding p+1 items, so the score order is descending peer id) and answers
// fetches from canned runs and errors.
type fetchBackend struct {
	runs [][]int
	errs []error
}

func (b fetchBackend) Scope([]Sphere) Backend { return b }

func (b fetchBackend) Search(from, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	entries := make([]overlay.Entry, len(b.runs))
	for p := range entries {
		entries[p] = overlay.Entry{Payload: ClusterRef{Peer: p, Level: level, Center: make([]float64, len(key)), Radius: 1, Items: p + 1}}
	}
	return entries, 1, nil
}

func (b fetchBackend) FetchRange(from, peer int, q []float64, eps float64) ([]int, error) {
	return b.runs[peer], b.errs[peer]
}

func (b fetchBackend) FetchKNN(from, peer int, q []float64, k int) ([]ItemDist, error) {
	return nil, errors.New("not under test")
}

// TestRangeQueryFetchOutcomes pins what RangeQuery makes of its fetches. All
// succeed: the ascending union. One fails: the error, the contacts up to and
// including the failing peer, and the runs of the peers ranked before it,
// concatenated in score order and unsorted — non-nil exactly when any fetch
// (failed or not reached ones included) returned ids, as the append loop
// this replaced left it.
func TestRangeQueryFetchOutcomes(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		runs [][]int // by peer; peer len-1 ranks first
		fail int     // peer whose fetch fails, -1 for none
	}{
		{"all-succeed", [][]int{{5, 1}, nil, {2, 9}, {4, 7, 8}}, -1},
		{"nothing-matched", [][]int{nil, nil, nil}, -1},
		{"first-ranked-fails", [][]int{{5, 1}, {3}, {2, 9}}, 2},
		{"first-ranked-fails-alone", [][]int{nil, nil, nil}, 2},
		{"middle-fails", [][]int{{5, 1}, {6}, {2, 9}, {8, 4}}, 1},
		{"last-ranked-fails", [][]int{{6}, {5, 1}, {9, 2}}, 0},
		{"fails-after-empty-runs", [][]int{{6}, nil, nil}, 0},
	}
	for _, tc := range cases {
		for _, fanout := range []int{1, 8} {
			errs := make([]error, len(tc.runs))
			if tc.fail >= 0 {
				errs[tc.fail] = boom
			}
			e, err := NewEngine(Config{Dim: 4, Levels: 1}, []Bounds{{Lo: -1, Hi: 1}}, fetchBackend{tc.runs, errs})
			if err != nil {
				t.Fatal(err)
			}
			e.SetParallelism(1, fanout)
			res, err := e.RangeQuery(0, make([]float64, 4), 0.5, RangeOptions{})

			var want []int
			contacted := len(tc.runs)
			if tc.fail < 0 {
				for _, r := range tc.runs {
					want = append(want, r...)
				}
				slices.Sort(want)
			} else {
				contacted = len(tc.runs) - tc.fail
				if slices.ContainsFunc(tc.runs, func(r []int) bool { return len(r) > 0 }) {
					want = []int{}
				}
				for p := len(tc.runs) - 1; p > tc.fail; p-- {
					want = append(want, tc.runs[p]...)
				}
			}
			if (tc.fail >= 0) != errors.Is(err, boom) {
				t.Errorf("%s fanout %d: error %v", tc.name, fanout, err)
			}
			if !reflect.DeepEqual(res.Items, want) || res.PeersContacted != contacted {
				t.Errorf("%s fanout %d: items %#v after %d contacts, want %#v after %d",
					tc.name, fanout, res.Items, res.PeersContacted, want, contacted)
			}
		}
	}
}

// scopeRecorder wraps a backend and notes what the engine tells Scope and
// what it then searches for.
type scopeRecorder struct {
	Backend
	scoped   [][]Sphere
	searched []Sphere
}

func (b *scopeRecorder) Scope(spheres []Sphere) Backend {
	b.scoped = append(b.scoped, spheres)
	return b
}

func (b *scopeRecorder) Search(from, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	b.searched = append(b.searched, Sphere{Level: level, Key: key, Radius: radius})
	return b.Backend.Search(from, level, key, radius)
}

// TestEngineScopesFirstSpheres pins the contract Backend.Scope documents: a
// query announces one sphere per level, computed before any search runs, and
// its first search of each level is bit for bit the announced one — what lets
// a backend ask a peer about every level at once. A range query searches
// nothing else; a k-nn query that has to widen a level searches that level
// again with a sphere it did not announce, and the answers are those of the
// unwrapped system either way.
func TestEngineScopesFirstSpheres(t *testing.T) {
	sys, data, _ := testSystem(t, 8, 20, 4, 16, 3, 3, 5)
	rec := &scopeRecorder{Backend: systemBackend{sys}}
	e := &Engine{cfg: sys.cfg, mappers: sys.mappers, backend: rec}
	levels := sys.cfg.Levels
	firstPerLevel := func() []Sphere {
		first := make([]Sphere, levels)
		seen := make([]bool, levels)
		for _, sp := range rec.searched {
			if !seen[sp.Level] {
				first[sp.Level], seen[sp.Level] = sp, true
			}
		}
		return first
	}

	q := data[3]
	gotR, err := e.RangeQuery(0, q, 0.3, RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := sys.RangeQuery(0, q, 0.3, RangeOptions{}); !reflect.DeepEqual(gotR, want) {
		t.Errorf("range answer changed under a recording backend")
	}
	if len(rec.scoped) != 1 || len(rec.scoped[0]) != levels || len(rec.searched) != levels {
		t.Fatalf("range query scoped %d times and searched %d spheres, want 1 and %d", len(rec.scoped), len(rec.searched), levels)
	}
	if !reflect.DeepEqual(firstPerLevel(), rec.scoped[0]) {
		t.Errorf("range query searched %+v, announced %+v", rec.searched, rec.scoped[0])
	}

	// k near the corpus size: 5% of the span cannot hold it, so levels widen.
	rec.scoped, rec.searched = nil, nil
	k := len(data) * 3 / 4
	gotK, err := e.KNNQuery(0, q, k, KNNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := sys.KNNQuery(0, q, k, KNNOptions{}); !reflect.DeepEqual(gotK, want) {
		t.Errorf("k-nn answer changed under a recording backend")
	}
	if len(rec.scoped) != 1 || len(rec.scoped[0]) != levels {
		t.Fatalf("k-nn query scoped %d times, want once with %d spheres", len(rec.scoped), levels)
	}
	if !reflect.DeepEqual(firstPerLevel(), rec.scoped[0]) {
		t.Errorf("k-nn query first searched %+v, announced %+v", firstPerLevel(), rec.scoped[0])
	}
	if len(rec.searched) <= levels {
		t.Errorf("k-nn query for %d of %d items searched only %d spheres: no level widened", k, len(data), len(rec.searched))
	}
}
