package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hyperm/internal/overlay"
)

// fetchBackend scores every peer on one cluster around the origin (peer p
// holding p+1 items, so the score order is descending peer id) and answers
// the retrieval call from canned runs and errors, the way a caching RPC
// backend would: the slots of resident peers are filled before the call fans
// out, the others from goroutines of their own, worst-ranked first. It counts
// the retrieval calls it gets.
type fetchBackend struct {
	runs     [][]int
	errs     []error
	resident []bool // by peer; nil: every slot is filled inline
	calls    *int
}

func (b fetchBackend) Scope(context.Context, []Sphere) Backend { return b }

func (b fetchBackend) Search(from, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	entries := make([]overlay.Entry, len(b.runs))
	for p := range entries {
		entries[p] = overlay.Entry{Payload: ClusterRef{Peer: p, Level: level, Center: make([]float64, len(key)), Radius: 1, Items: p + 1}}
	}
	return entries, 1, nil
}

// fill runs set(i, peers[i]) for every slot: inline for the resident peers,
// then concurrently for the rest.
func (b fetchBackend) fill(peers []int, set func(i, peer int)) {
	*b.calls++
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := len(peers) - 1; i >= 0; i-- {
		if b.resident == nil || b.resident[peers[i]] {
			set(i, peers[i])
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			set(i, peers[i])
		}(i)
	}
}

func (b fetchBackend) FetchRange(from int, peers []int, q []float64, eps float64) ([][]int, []error) {
	ids, errs := make([][]int, len(peers)), make([]error, len(peers))
	b.fill(peers, func(i, p int) { ids[i], errs[i] = b.runs[p], b.errs[p] })
	return ids, errs
}

// FetchKNN hands out each run as items at distance id from the query, cut to
// what the peer was asked for.
func (b fetchBackend) FetchKNN(from int, peers, wants []int, q []float64) ([][]ItemDist, []error) {
	items, errs := make([][]ItemDist, len(peers)), make([]error, len(peers))
	b.fill(peers, func(i, p int) {
		for _, id := range b.runs[p][:min(wants[i], len(b.runs[p]))] {
			items[i] = append(items[i], ItemDist{ID: id, Dist2: float64(id)})
		}
		errs[i] = b.errs[p]
	})
	return items, errs
}

// fetchCase is one outcome of a retrieval call: the runs the peers hold and
// the one whose fetch fails.
type fetchCase struct {
	name string
	runs [][]int // by peer; peer len-1 ranks first
	fail int     // peer whose fetch fails, -1 for none
}

var fetchCases = []fetchCase{
	{"all-succeed", [][]int{{5, 1}, nil, {2, 9}, {4, 7, 8}}, -1},
	{"nothing-matched", [][]int{nil, nil, nil}, -1},
	{"first-ranked-fails", [][]int{{5, 1}, {3}, {2, 9}}, 2},
	{"first-ranked-fails-alone", [][]int{nil, nil, nil}, 2},
	{"middle-fails", [][]int{{5, 1}, {6}, {2, 9}, {8, 4}}, 1},
	{"last-ranked-fails", [][]int{{6}, {5, 1}, {9, 2}}, 0},
	{"fails-after-empty-runs", [][]int{{6}, nil, nil}, 0},
}

// checkFetchOutcomes runs query once per case and per way a backend may fill
// its slots — all inline, or a mix of resident answers, fetched ones and the
// failed fetch (never a resident answer) — and holds each run to what the
// serial coordinator made of the same fetches: one retrieval call, the items
// want(tc) names, and on a failure the error wrapped with the failing peer
// and the contacts up to and including it.
func checkFetchOutcomes(t *testing.T, query func(e *Engine) ([]int, int, error), want func(tc fetchCase) []int) {
	boom := errors.New("boom")
	for _, tc := range fetchCases {
		peers := len(tc.runs)
		errs := make([]error, peers)
		contacted := peers
		var wantErr string
		if tc.fail >= 0 {
			errs[tc.fail] = boom
			contacted = peers - tc.fail
			wantErr = fmt.Sprintf("core: fetch from peer %d: boom", tc.fail)
		}
		even, odd := make([]bool, peers), make([]bool, peers)
		for p := range even {
			even[p], odd[p] = p%2 == 0 && p != tc.fail, p%2 == 1 && p != tc.fail
		}
		for mix, resident := range map[string][]bool{"inline": nil, "even-resident": even, "odd-resident": odd, "none-resident": make([]bool, peers)} {
			calls := 0
			e, err := NewEngine(Config{Dim: 4, Levels: 1}, []Bounds{{Lo: -1, Hi: 1}}, fetchBackend{tc.runs, errs, resident, &calls})
			if err != nil {
				t.Fatal(err)
			}
			items, contacts, err := query(e)
			if calls != 1 {
				t.Errorf("%s %s: %d retrieval calls, want 1", tc.name, mix, calls)
			}
			if tc.fail >= 0 && (!errors.Is(err, boom) || err.Error() != wantErr) || tc.fail < 0 && err != nil {
				t.Errorf("%s %s: error %v, want %q", tc.name, mix, err, wantErr)
			}
			if w := want(tc); !reflect.DeepEqual(items, w) || contacts != contacted {
				t.Errorf("%s %s: items %#v after %d contacts, want %#v after %d", tc.name, mix, items, contacts, w, contacted)
			}
		}
	}
}

// sortedUnion is the ascending concatenation of runs, empty as the empty
// slice.
func sortedUnion(runs [][]int) []int {
	all := []int{}
	for _, r := range runs {
		all = append(all, r...)
	}
	slices.Sort(all)
	return all
}

// TestRangeQueryFetchOutcomes pins what RangeQuery makes of its retrieval
// call. All succeed: the ascending union. One fails: the runs of the peers
// ranked before it, concatenated in score order and unsorted — non-nil
// exactly when any slot (failed or ranked after the failure included) holds
// ids, as the append loop this replaced left it.
func TestRangeQueryFetchOutcomes(t *testing.T) {
	checkFetchOutcomes(t, func(e *Engine) ([]int, int, error) {
		res, err := e.RangeQuery(context.Background(), 0, make([]float64, 4), 0.5, RangeOptions{})
		return res.Items, res.PeersContacted, err
	}, func(tc fetchCase) []int {
		if tc.fail < 0 {
			if all := sortedUnion(tc.runs); len(all) > 0 {
				return all
			}
			return nil
		}
		var want []int
		if slices.ContainsFunc(tc.runs, func(r []int) bool { return len(r) > 0 }) {
			want = []int{}
		}
		for p := len(tc.runs) - 1; p > tc.fail; p-- {
			want = append(want, tc.runs[p]...)
		}
		return want
	})
}

// TestKNNQueryFetchOutcomes is the same for KNNQuery, with k the whole scored
// mass and C large enough that every peer is selected and asked for more than
// its run holds. All succeed: every id, by distance (the fake's distances rise
// with the id). One fails: no items at all.
func TestKNNQueryFetchOutcomes(t *testing.T) {
	checkFetchOutcomes(t, func(e *Engine) ([]int, int, error) {
		peers := len(e.backend.(fetchBackend).runs)
		res, err := e.KNNQuery(context.Background(), 0, make([]float64, 4), peers*(peers+1)/2, KNNOptions{C: 4})
		return res.Items, res.PeersContacted, err
	}, func(tc fetchCase) []int {
		if tc.fail < 0 {
			return sortedUnion(tc.runs)
		}
		return nil
	})
}

// scopeRecorder wraps a backend and notes what the engine tells Scope and
// what it then searches for.
type scopeRecorder struct {
	Backend
	scoped   [][]Sphere
	searched []Sphere
}

func (b *scopeRecorder) Scope(_ context.Context, spheres []Sphere) Backend {
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
	rec := &scopeRecorder{Backend: systemBackend{s: sys}}
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
	gotR, err := e.RangeQuery(context.Background(), 0, q, 0.3, RangeOptions{})
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
	gotK, err := e.KNNQuery(context.Background(), 0, q, k, KNNOptions{})
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
