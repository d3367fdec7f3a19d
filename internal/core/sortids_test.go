package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// ascendingRuns deals ids drawn from [0, 2*k*per) to k runs of about per ids
// each, every run ascending — the answers of k holders over one id space.
func ascendingRuns(rng *rand.Rand, k, per int) [][]int {
	runs := make([][]int, k)
	for id := 0; id < 2*k*per; id++ {
		if rng.Intn(2) == 0 {
			r := rng.Intn(k)
			runs[r] = append(runs[r], id)
		}
	}
	return runs
}

// TestMergeIDsMatchesSort: whatever the shape of the runs, mergeIDs returns
// the sorted concatenation, in memory of its own, and leaves the runs alone.
func TestMergeIDsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const long = 3000
	cases := map[string][][]int{
		"none":           nil,
		"all-empty":      {nil, {}, nil},
		"one-short":      {{3, 5, 9}},
		"one-long":       ascendingRuns(rng, 1, long),
		"one-unsorted":   {rng.Perm(long)},
		"empty-leading":  append([][]int{nil, {}}, ascendingRuns(rng, 3, long)...),
		"empty-trailing": append(ascendingRuns(rng, 3, long), nil, []int{}),
		"empty-between":  {{1, 4}, nil, {2, 3}, {}, {0}},
		"short-and-long": append(ascendingRuns(rng, 2, long), []int{-7, 12, 1 << 40}),
	}
	for _, k := range []int{1, 2, 3, mergeMaxRuns, mergeMaxRuns + 1, 24, 64} {
		for _, per := range []int{40, 250, long} {
			name := fmt.Sprintf("%dx%d", k, per)
			cases[name] = ascendingRuns(rng, k, per)

			// The same ids in every run: duplicates across runs, and within.
			dup := make([][]int, k)
			for i := range dup {
				dup[i] = make([]int, per)
				for j := range dup[i] {
					dup[i][j] = j / 3
				}
			}
			cases[name+"-duplicates"] = dup

			// One run of an otherwise mergeable set does not ascend.
			mixed := ascendingRuns(rng, k, per)
			bad := mixed[rng.Intn(k)]
			bad[len(bad)/2], bad[len(bad)/2+1] = bad[len(bad)/2+1], bad[len(bad)/2]
			cases[name+"-one-unsorted"] = mixed

			neg := ascendingRuns(rng, k, per)
			for _, r := range neg {
				for j := range r {
					r[j] -= k * per
				}
			}
			cases[name+"-negative"] = neg
		}
	}
	for name, runs := range cases {
		var want []int
		before := make([][]int, len(runs))
		for i, r := range runs {
			want = append(want, r...)
			before[i] = slices.Clone(r)
		}
		slices.Sort(want)
		got := mergeIDs(runs)
		if !slices.Equal(got, want) {
			t.Errorf("%s: mergeIDs differs from the sorted concatenation (%d ids, want %d)", name, len(got), len(want))
			continue
		}
		if len(want) == 0 && got != nil {
			t.Errorf("%s: empty union is %v, want nil", name, got)
		}
		// Overwrite the result: a run that changes shares memory with it.
		for i := range got {
			got[i] = ^got[i]
		}
		for i, r := range runs {
			if !slices.Equal(r, before[i]) {
				t.Errorf("%s: run %d was modified or is aliased by the result", name, i)
			}
		}
	}
}

// BenchmarkMergeIDs is what mergeMaxRuns and radixMinPerPass are read off: the
// shapes are the fetches of serve-ingest (4 holders x 25k ids, bare and with
// the few ids above 1<<28 its ingest stream adds, which cost the radix sort a
// third pass), serve-uniform (24 x 40), serve-skewed (24 x 60 and two narrower
// queries, with the ids above 1<<24 its publishes add: three passes over
// 0.24k to 1.5k ids) and disseminate (64 x 250), and two shapes either side of the
// merge limit — each through mergeIDs and through every one of its paths
// forced. A short shape is drawn many times over and the draws take turns: a
// comparison sort fed the same thousand ids every iteration runs on a branch
// predictor that has learnt them, at a third of what it costs a coordinator.
func BenchmarkMergeIDs(b *testing.B) {
	shapes := []struct {
		k, per int
		tag    string // "" or what the workload adds: extra ids from base up
		extra  int
		base   int
	}{
		{k: 4, per: 25000}, {4, 25000, "+ingest", 200, 1 << 28}, {k: 4, per: 250}, {k: 8, per: 5000},
		{k: 24, per: 40}, {24, 8, "+publish", 48, 1 << 24}, {24, 15, "+publish", 48, 1 << 24},
		{24, 60, "+publish", 48, 1 << 24}, {k: 64, per: 250},
	}
	concat := func(runs [][]int) (out []int, or int) {
		total := 0
		for _, r := range runs {
			total += len(r)
		}
		out = make([]int, 0, total)
		for _, r := range runs {
			out = append(out, r...)
			for _, id := range r {
				or |= id
			}
		}
		return out, or
	}
	paths := []struct {
		name string
		f    func([][]int) []int
	}{
		{"mergeIDs", mergeIDs},
		{"merge", func(runs [][]int) []int {
			out, _ := concat(runs)
			mergeRuns(out, slices.Clone(runs))
			return out
		}},
		{"concat+radix", func(runs [][]int) []int {
			out, or := concat(runs)
			radixSortIDs(out, bits.Len(uint(or)))
			return out
		}},
		{"concat+sort", func(runs [][]int) []int {
			out, _ := concat(runs)
			slices.Sort(out)
			return out
		}},
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%dx%d", sh.k, sh.per) + sh.tag
		rng := rand.New(rand.NewSource(int64(sh.k)))
		draws := make([][][]int, max(1, 1<<17/(sh.k*sh.per)))
		for d := range draws {
			draws[d] = ascendingRuns(rng, sh.k, sh.per)
			for i := 0; i < sh.extra; i++ {
				draws[d][i%sh.k] = append(draws[d][i%sh.k], sh.base+i)
			}
		}
		for _, p := range paths {
			b.Run(name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink += len(p.f(draws[i%len(draws)]))
				}
			})
		}
	}
}
