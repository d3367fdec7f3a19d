package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hyperm/internal/overlay"
	"hyperm/internal/vec"
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

func (b fetchBackend) FetchRange(_ context.Context, from int, peers []int, q []float64, eps float64) ([]RangeIDs, []error) {
	ids, errs := make([]RangeIDs, len(peers)), make([]error, len(peers))
	b.fill(peers, func(i, p int) { ids[i], errs[i] = RangeIDsOf(b.runs[p]), b.errs[p] })
	return ids, errs
}

// FetchKNN hands out each run as items at distance id from the query, cut to
// what the peer was asked for.
func (b fetchBackend) FetchKNN(_ context.Context, from int, peers, wants []int, q []float64) ([][]ItemDist, []error) {
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

// TestPlanThenRetrieve pins the split of a query into its two phases:
// RangeQuery and KNNQuery are their plan followed by its retrieval, and a
// plan kept and retrieved over again answers the same without one more
// lookup — what a serving coordinator's answer memo resumes on. The k-nn
// cases include an early return (a query far from every cluster scores no
// peer), whose plan contacts nobody and whose answer holds no item slice.
func TestPlanThenRetrieve(t *testing.T) {
	sys, data, _ := testSystem(t, 8, 20, 4, 16, 3, 3, 5)
	rec := &scopeRecorder{Backend: systemBackend{s: sys}}
	e := &Engine{cfg: sys.cfg, mappers: sys.mappers, backend: rec}
	ctx := context.Background()
	far := make([]float64, len(data[0]))
	for i := range far {
		far[i] = 1e9
	}
	empty := 0
	for _, q := range [][]float64{data[3], data[40], far} {
		for _, eps := range []float64{0, 0.3, 2} {
			plan, err := e.PlanRange(ctx, 0, q, eps, RangeOptions{MaxPeers: 3})
			if err != nil {
				t.Fatal(err)
			}
			want := sys.RangeQuery(0, q, eps, RangeOptions{MaxPeers: 3})
			rec.searched = nil
			for i := 0; i < 2; i++ {
				got, err := e.RetrieveRange(ctx, 0, q, eps, plan)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("range eps %v: retrieval %d over a kept plan answered %+v, the query %+v", eps, i, got, want)
				}
			}
			if len(rec.searched) != 0 {
				t.Errorf("range eps %v: retrievals searched %d spheres, want none", eps, len(rec.searched))
			}
		}
		for _, k := range []int{1, 5, 400} {
			for _, opts := range []KNNOptions{{}, {MaxPeers: 2, C: 2}} {
				plan, err := e.PlanKNN(ctx, 0, q, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := sys.KNNQuery(0, q, k, opts)
				if len(plan.Peers) != want.PeersContacted || len(plan.Wants) != len(plan.Peers) {
					t.Errorf("%d-nn: plan selects %d peers with %d shares, the query contacted %d", k, len(plan.Peers), len(plan.Wants), want.PeersContacted)
				}
				if len(plan.Peers) == 0 {
					empty++
				}
				rec.searched = nil
				for i := 0; i < 2; i++ {
					got, err := e.RetrieveKNN(ctx, 0, q, plan)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d-nn %+v: retrieval %d over a kept plan answered %+v, the query %+v", k, opts, i, got, want)
					}
				}
				if len(rec.searched) != 0 {
					t.Errorf("%d-nn: retrievals searched %d spheres, want none", k, len(rec.searched))
				}
			}
		}
	}
	if empty == 0 {
		t.Error("no k-nn plan took an early return")
	}
}

// referenceBackend is the in-process backend with every store read through
// the frozen reference scans: row-order range lists and a full sort per k-nn
// fetch.
type referenceBackend struct{ systemBackend }

func (b referenceBackend) Scope(context.Context, []Sphere) Backend { return b }

func (b referenceBackend) FetchRange(_ context.Context, _ int, peers []int, q []float64, eps float64) ([]RangeIDs, []error) {
	ids := make([]RangeIDs, len(peers))
	for i, p := range peers {
		if ps := b.s.peers[p]; !ps.dead {
			ids[i] = RangeIDs{List: referenceLocalRange(q, eps, ps.store)}
		}
	}
	return ids, nil
}

func (b referenceBackend) FetchKNN(_ context.Context, _ int, peers, wants []int, q []float64) ([][]ItemDist, []error) {
	items := make([][]ItemDist, len(peers))
	for i, p := range peers {
		if ps := b.s.peers[p]; !ps.dead {
			items[i] = referenceLocalKNN(q, wants[i], ps.store)
		}
	}
	return items, nil
}

// TestQueriesMatchReferenceScans runs whole queries over the paper's store
// shape, 64 peers of 0 to ~1,000 128-d Markov rows (mean ~500, most of them
// indexed), and holds every answer, range form included, to the one an engine
// reading each store through the reference scans returns.
func TestQueriesMatchReferenceScans(t *testing.T) {
	const peers, dim = 64, 128
	rng := rand.New(rand.NewSource(11))
	sys, err := NewSystem(Config{Peers: peers, Dim: dim, Levels: 3, ClustersPerPeer: 4, Factory: canFactory(11), Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	var data [][]float64
	perm := rng.Perm(peers * (peers - 1) / 2 * 32)
	for p := range peers {
		rows := markovRows(rng, 32*p, dim)
		ids := make([]int, len(rows))
		for i := range ids {
			ids[i] = perm[len(data)+i]
		}
		if len(rows) > 0 {
			sys.AddPeerData(p, ids, rows)
		}
		data = append(data, rows...)
	}
	sys.DeriveBounds()
	sys.PublishAll()
	ref := &Engine{cfg: sys.cfg, mappers: sys.mappers, backend: referenceBackend{systemBackend{s: sys}}}
	ctx := context.Background()
	indexed := 0
	for p := range peers {
		if _, n := sys.peers[p].store.ScanGroups(); n > 0 {
			indexed++
		}
	}
	if indexed < peers/2 {
		t.Fatalf("%d of %d stores indexed", indexed, peers)
	}
	hits := 0
	for qi := range 6 {
		q := vec.Clone(data[rng.Intn(len(data))])
		if qi%2 == 1 {
			for j := range q {
				q[j] += rng.NormFloat64()
			}
		}
		from := rng.Intn(peers)
		for _, frac := range []float64{0.25, 0.5, 1} {
			eps := frac * vec.Dist(q, data[rng.Intn(len(data))])
			want, err := ref.RangeQuery(ctx, from, q, eps, RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.RangeQuery(from, q, eps, RangeOptions{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d eps %v: %d ids from %d peers, the reference scans %d from %d",
					qi, eps, len(got.Items), got.PeersContacted, len(want.Items), want.PeersContacted)
			}
			hits = max(hits, len(want.Items))
			plan, err := sys.engine.PlanRange(ctx, from, q, eps, RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, form, err := sys.engine.RetrieveRangeIDs(ctx, from, q, eps, plan)
			if err != nil {
				t.Fatal(err)
			}
			_, wantForm, err := ref.RetrieveRangeIDs(ctx, from, q, eps, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !sameForm(form, wantForm) {
				t.Fatalf("query %d eps %v: range form of %d chunks and %d listed ids, the reference scans' %d and %d",
					qi, eps, len(form.Keys), len(form.List), len(wantForm.Keys), len(wantForm.List))
			}
		}
		for _, k := range []int{1, 10, 100} {
			want, err := ref.KNNQuery(ctx, from, q, k, KNNOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.KNNQuery(from, q, k, KNNOptions{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d %d-nn: answer differs from the reference scans'\n got %v\nwant %v", qi, k, got.Items, want.Items)
			}
		}
	}
	if hits <= 4096 {
		t.Errorf("largest range answer holds %d ids, want one large enough for a bitmap chunk", hits)
	}
}
