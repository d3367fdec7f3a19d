package node

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"hyperm/internal/core"
	"hyperm/internal/store"
	"hyperm/internal/transport"
)

// TestFetchEntryCoveredAgreesWithLocalRange pins the publish-time
// invalidation filter to the scan it stands in for, on the rows where they
// could part ways: a published item exactly on the range boundary (the memo
// entry must be dropped, because a fresh scan returns the item), one just
// outside, and one whose first eight coordinates alone already sum to eps²
// (where a capped distance that exited on ">=" would call it inside). Both
// an unindexed and an indexed holder store are scanned.
func TestFetchEntryCoveredAgreesWithLocalRange(t *testing.T) {
	const dim = 16
	q := make([]float64, dim)
	at := func(coords ...float64) []float64 {
		v := make([]float64, dim)
		copy(v, coords)
		return v
	}
	const eps = 5
	key := "r" + string(encodeFetchRangeReq(q, eps))
	cases := []struct {
		name   string
		item   []float64
		inside bool
	}{
		{"on the boundary", at(3, 4), true},
		{"on the boundary, late coordinates", at(0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 4), true},
		{"one step outside", at(3, 4, 1), false},
		{"prefix sums to eps2, tail adds more", at(3, 4, 0, 0, 0, 0, 0, 0, 0, 1), false},
		{"well inside", at(1, 1), true},
	}
	for _, rows := range []int{10, store.IndexMinRows + 10} {
		for _, tc := range cases {
			st := store.New(dim)
			for i := 0; i < rows; i++ {
				st.Append(i, at(float64(20+i%9), float64(i%7))) // far filler
			}
			const id = 1 << 20
			st.Append(id, tc.item)
			got := slices.Contains(core.LocalRange(q, eps, st), id)
			covered := fetchEntryCovered(key, rangeFetch.bound(core.RangeIDs{}, math.Float64bits(eps)), [][]float64{tc.item})
			if got != tc.inside || covered != tc.inside {
				t.Errorf("%s (%d rows): LocalRange returns it = %v, fetchEntryCovered = %v, want both %v",
					tc.name, rows, got, covered, tc.inside)
			}
		}
	}
}

// TestFetchEntryCoveredAgreesWithLocalKNN is the k-nn half: against a store
// whose k-th nearest item to q lies at distance 12, an appended item that
// changes core.LocalKNN's answer must be covered, and one strictly beyond the
// k-th distance must not be. A tie is covered on the safe side: ids decide
// whether it enters. A store with fewer than k items gains any item, and
// every item covers its answer. Both an unindexed and an indexed holder store
// are scanned.
func TestFetchEntryCoveredAgreesWithLocalKNN(t *testing.T) {
	const dim, k = 16, 3
	q := make([]float64, dim)
	at := func(coords ...float64) []float64 {
		v := make([]float64, dim)
		copy(v, coords)
		return v
	}
	cases := []struct {
		name             string
		item             []float64
		covered, changes bool
	}{
		{"well inside", at(1, 1), true, true},
		{"just inside, late coordinates", at(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11.999), true, true},
		{"on the k-th distance", at(0, 12), true, false},
		{"just beyond the k-th distance", at(12, 1e-3), false, false},
		{"well beyond", at(30, 30), false, false},
	}
	for _, rows := range []int{10, store.IndexMinRows + 10} {
		for _, kk := range []int{k, rows + 1} {
			key := "k" + string(encodeFetchKNNReq(q, kk))
			for _, tc := range cases {
				st := store.New(dim)
				for i := 0; i < rows; i++ {
					st.Append(i, at(float64(10+i))) // the i-th nearest at distance 10+i
				}
				before := core.LocalKNN(q, kk, st)
				bound := knnFetch.bound(before, uint64(kk))
				st.Append(1<<20, tc.item)
				changed := !slices.Equal(before, core.LocalKNN(q, kk, st))
				covered := fetchEntryCovered(key, bound, [][]float64{tc.item})
				fewer := kk > rows
				if want := tc.covered || fewer; covered != want {
					t.Errorf("%s (%d rows, k %d): fetchEntryCovered = %v, want %v", tc.name, rows, kk, covered, want)
				}
				if changed && !covered {
					t.Errorf("%s (%d rows, k %d): the item changes LocalKNN's answer, but is not covered", tc.name, rows, kk)
				}
				if (tc.changes || fewer) && !changed {
					t.Errorf("%s (%d rows, k %d): the item leaves LocalKNN's answer as it was", tc.name, rows, kk)
				}
			}
		}
	}
}

// TestFetchRangeWhileIndexBuilds: a scan that finds another scan building a
// large store's first index carries on without one (store.ScanGroups returns
// no groups) and answers in row order. When the rows' ids ascend, as a
// corpus's do, that answer fills a chunk past the bitmap cut, and the
// fetch_range body must still be the canonical form the coordinator decodes.
func TestFetchRangeWhileIndexBuilds(t *testing.T) {
	cl := startProbeCluster(t, 4, Tuning{})
	nd := cl.Nodes[0]
	dim := nd.cfg.Dim
	const rows = 6000 // more than 4096 ids in chunk 0
	st := store.New(dim)
	for i := range rows {
		v := make([]float64, dim)
		v[0] = float64(i % 97)
		st.Append(i, v)
	}
	release := holdIndexBuild(t, st)
	if _, indexed := st.ScanGroups(); indexed != 0 {
		t.Fatalf("the store has %d indexed rows while its build is held, want 0", indexed)
	}
	nd.mu.Lock()
	nd.store = st
	nd.mu.Unlock()
	resp, err := nd.handle(context.Background(), transport.Request{Method: methodFetchRange, Body: encodeFetchRangeReq(make([]float64, dim), 1e9)})
	release()
	if err != nil {
		t.Fatal(err)
	}
	got, err := transport.Decode(resp.Body, walkRangeIDs)
	if err != nil {
		t.Fatalf("fetch_range body of an unindexed scan: %v", err)
	}
	if items := got.Items(); len(items) != rows || !slices.IsSorted(items) || items[0] != 0 || items[rows-1] != rows-1 {
		t.Errorf("fetch_range answered %d ids, want the ids 0..%d", len(items), rows-1)
	}
}

// holdIndexBuild takes st's index-build try-lock, as a scan building the
// index holds it, and returns its release. The lock is unexported; a test
// that reached it any other way would have to race a real build.
func holdIndexBuild(t *testing.T, st *store.Store) (release func()) {
	t.Helper()
	f := reflect.ValueOf(st).Elem().FieldByName("building")
	if !f.IsValid() || f.Type() != reflect.TypeFor[atomic.Bool]() {
		t.Fatal("store.Store has no building flag of type atomic.Bool")
	}
	b := (*atomic.Bool)(unsafe.Pointer(f.UnsafeAddr()))
	if !b.CompareAndSwap(false, true) {
		t.Fatal("the store is building its index already")
	}
	return func() { b.Store(false) }
}
