package node

import (
	"math"
	"slices"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/store"
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
			covered := fetchEntryCovered(key, math.Float64bits(eps), nil, [][]float64{tc.item})
			if got != tc.inside || covered != tc.inside {
				t.Errorf("%s (%d rows): LocalRange returns it = %v, fetchEntryCovered = %v, want both %v",
					tc.name, rows, got, covered, tc.inside)
			}
		}
	}
}
