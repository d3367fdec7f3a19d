package core

import (
	"fmt"
	"math"
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

// forms returns the dense form of each run, as holders send them.
func forms(runs [][]int) []RangeIDs {
	out := make([]RangeIDs, len(runs))
	for i, r := range runs {
		out[i] = RangeIDsOf(r)
	}
	return out
}

// TestMergeIDsMatchesSort: whatever the shape of the runs, mergeIDs returns
// the sorted concatenation, in memory of its own, and leaves the runs alone;
// a union that leaves it with bitmaps has them in its canonical form.
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
		// Dense chunks: one run's bitmap overlapping another's, and a list id
		// inside another run's bitmap chunk.
		"dense-overlap":     {span(0, 6000), span(5999, 12000)},
		"dense-list-inside": {span(0, 6000), {3, 5000, 70000}},
		"dense-disjoint":    {span(0, 6000), span(6000, 12000), {1 << 24, 1<<24 + 1}},
		"many-chunks":       spread(2 * maxChunks),
		// Two listed halves of 2500 ids per chunk that union to bitmaps, in
		// more chunks than a holder's scratch holds; then the same with one
		// id in both halves, in the last chunk.
		"many-dense-chunks":       interleaved(maxChunks+2, false),
		"many-chunks-late-repeat": interleaved(maxChunks+2, true),
	}
	for _, k := range []int{1, 2, 3, 4, 5, 24, 64} {
		for _, per := range []int{40, 250, long, 25000} {
			name := fmt.Sprintf("%dx%d", k, per)
			if k*per > 200000 {
				continue
			}
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
		merged := mergeIDs(forms(runs))
		got := merged.Items()
		if !slices.Equal(got, want) {
			t.Errorf("%s: mergeIDs differs from the sorted concatenation (%d ids, want %d)", name, len(got), len(want))
			continue
		}
		if len(want) == 0 && got != nil {
			t.Errorf("%s: empty union is %v, want nil", name, got)
		}
		// The sort leaves one list, whose form RetrieveRangeIDs works out.
		sent := merged
		if len(sent.Keys) == 0 {
			sent = RangeIDsOf(sent.List)
		}
		if canon := RangeIDsOf(want); !sameForm(sent, canon) || sent.Check() != nil {
			t.Errorf("%s: union is not in its canonical form (%d chunks, want %d; check: %v)", name, len(sent.Keys), len(canon.Keys), sent.Check())
		}
		// Overwrite the result: a run that changes shares memory with it.
		for i := range merged.List {
			merged.List[i] = ^merged.List[i]
		}
		for i := range merged.Words {
			merged.Words[i] = ^merged.Words[i]
		}
		for i, r := range runs {
			if !slices.Equal(r, before[i]) {
				t.Errorf("%s: run %d was modified or is aliased by the result", name, i)
			}
		}
	}
}

// TestMergeIDsSortsOnlyUnorderedAnswers: answers out of order (a small
// store's row order) that hold fewer ids than the ascending ones are sorted
// on their own and unioned with them, and the union sends the same bytes as
// sorting the whole concatenation; an id repeated inside one answer or
// shared by two, or answers mostly out of order, still take the
// concatenation, with the same result.
func TestMergeIDsSortsOnlyUnorderedAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shuffled := func(ids []int) []int {
		out := slices.Clone(ids)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	evens := func(lo, hi int) []int {
		var out []int
		for id := lo; id < hi; id += 2 {
			out = append(out, id)
		}
		return out
	}
	cases := []struct {
		name   string
		runs   [][]int
		bitmap bool // the union has a dense chunk: only the chunk walk makes one
	}{
		{"row-order-beside-ascending", [][]int{{1, 9, 40}, shuffled(span(100, 300)), {2, 3}, shuffled(span(500, 700)), {1 << 20}}, false},
		{"row-order-inside-a-bitmap", [][]int{evens(0, 12000), shuffled(evens(1, 401)), {70000, 70001}}, true},
		{"row-order-completes-a-bitmap", [][]int{span(0, 4000), shuffled(span(4000, 6000)), shuffled(span(1<<17, 1<<17+50))}, true},
		{"mostly-row-order", [][]int{span(0, 3000), shuffled(span(3000, 6000)), {70000}}, false},
		{"all-row-order", [][]int{shuffled(span(0, 100)), shuffled(span(100, 250))}, false},
		{"shared-with-ascending", [][]int{evens(0, 12000), shuffled(append(evens(1, 401), 0))}, false},
		{"shared-between-row-orders", [][]int{shuffled(span(0, 100)), shuffled(span(99, 250)), {1000}}, false},
		{"repeat-inside-row-order", [][]int{{5000, 5001}, shuffled(append(span(0, 200), 17))}, false},
	}
	for _, tc := range cases {
		before := make([][]int, len(tc.runs))
		var want []int
		for i, r := range tc.runs {
			before[i] = slices.Clone(r)
			want = append(want, r...)
		}
		slices.Sort(want)
		merged := mergeIDs(forms(tc.runs))
		if got := merged.Items(); !slices.Equal(got, want) {
			t.Errorf("%s: mergeIDs differs from the sorted concatenation (%d ids, want %d)", tc.name, len(got), len(want))
			continue
		}
		sent := merged
		if len(sent.Keys) == 0 {
			sent = RangeIDsOf(sent.List)
		}
		if today := RangeIDsOf(want); !sameForm(sent, today) {
			t.Errorf("%s: sends %d chunks and %d listed ids, the sorted concatenation %d and %d",
				tc.name, len(sent.Keys), len(sent.List), len(today.Keys), len(today.List))
		}
		if tc.bitmap && len(merged.Keys) == 0 {
			t.Errorf("%s: union came out as one list; the answers were not walked by chunk", tc.name)
		}
		for i, r := range tc.runs {
			if !slices.Equal(r, before[i]) {
				t.Errorf("%s: run %d was modified", tc.name, i)
			}
		}
	}
}

// span returns the ids [lo, hi).
func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for id := lo; id < hi; id++ {
		out = append(out, id)
	}
	return out
}

// spread returns n runs of one id each, every id in a chunk of its own.
func spread(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = []int{i << chunkShift}
	}
	return out
}

// interleaved returns two runs over chunks 0..chunks-1, the even and the odd
// ids of the first 5000 of each chunk; with repeat, the second run also
// holds the first's last id.
func interleaved(chunks int, repeat bool) [][]int {
	var even, odd []int
	for key := range chunks {
		for j := 0; j < 5000; j += 2 {
			even = append(even, key<<chunkShift+j)
			odd = append(odd, key<<chunkShift+j+1)
		}
	}
	if repeat {
		last := even[len(even)-1]
		i, _ := slices.BinarySearch(odd, last)
		odd = slices.Insert(odd, i, last)
	}
	return [][]int{even, odd}
}

// sameForm reports whether two forms are equal field by field (nil and empty
// alike).
func sameForm(a, b RangeIDs) bool {
	return slices.Equal(a.List, b.List) && slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Words, b.Words)
}

// TestRangeIDsForm pins the form at its cuts: a chunk of 4096 ascending ids
// stays a list and one of 4097 becomes a bitmap; an answer that repeats an
// id or does not ascend stays one list in its own order; ids straddling a
// 2^16 boundary, negative ids and ids far above a dense chunk each land in
// their own chunk; and every form Items materialises to the ids it was built
// from.
func TestRangeIDsForm(t *testing.T) {
	withDup := span(0, 6000)
	withDup[100] = withDup[99]
	descending := span(0, 6000)
	slices.Reverse(descending)
	cases := []struct {
		name  string
		ids   []int
		dense []int // the chunk keys that must be bitmaps
	}{
		{"empty", nil, nil},
		{"4096", span(0, 4096), nil},
		{"4097", span(0, 4097), []int{0}},
		{"4097-beside-4096", append(span(0, 4097), span(1<<16, 1<<16+4096)...), []int{0}},
		{"straddles-2^16", span(1<<16-5000, 1<<16+5000), []int{0, 1}},
		{"negative", span(-8000, 3), []int{-1}},
		{"far-above-dense", append(span(0, 5000), 1<<24, 1<<28+7, math.MaxInt), []int{0}},
		{"below-dense", append([]int{math.MinInt, -1}, span(0, 5000)...), []int{0}},
		{"duplicate", withDup, nil},
		{"descending", descending, nil},
	}
	for _, c := range cases {
		f := RangeIDsOf(c.ids)
		if !slices.Equal(f.Keys, c.dense) {
			t.Errorf("%s: bitmap chunks %v, want %v", c.name, f.Keys, c.dense)
		}
		if err := f.Check(); err != nil {
			t.Errorf("%s: the form is refused: %v", c.name, err)
		}
		if got := f.Items(); !slices.Equal(got, c.ids) || f.Len() != len(c.ids) {
			t.Errorf("%s: materialises to %d ids (Len %d), want the %d it was built from", c.name, len(got), f.Len(), len(c.ids))
		}
	}
}

// BenchmarkMergeIDs times the coordinator's union, materialised as Items, over
// the fetches of serve-ingest (4 holders x 25k ids; with the ids above 1<<24
// its request-mix publishes add and the ids above 1<<28 its ingest stream
// adds), serve-uniform (24 x 40), serve-skewed (24 x 60 and two narrower
// queries, with the ids above 1<<24 its publishes add: three passes over 0.24k
// to 1.5k ids) and disseminate (64 x 250), serve-ingest's shape with its ids
// 64 apart (-spread: 196 chunks, more than a chunkSet holds, so the union
// sorts), and two shapes either side of four runs — each through mergeIDs and through concatenate + radix sort and
// concatenate + comparison sort. Each run arrives as its holder's dense form,
// ascending as an indexed holder answers; the -rows shapes shuffle each run,
// as the small stores of serve-uniform and disseminate answer in row order,
// and the 32 x 500 -Nrows shapes only the last N, as disseminate's few
// unindexed stores among indexed ones do.
// A short shape is drawn many times over and the draws take turns: a
// comparison sort fed the same thousand ids every iteration runs on a branch
// predictor that has learnt them, at a third of what it costs a coordinator.
func BenchmarkMergeIDs(b *testing.B) {
	type extra struct{ n, base int }
	shapes := []struct {
		k, per int
		tag    string // "" or what the workload adds: extra ids from base up
		extras []extra
		rows   int // runs shuffled, the last ones: a small store answers in row order
		stride int // > 1: ids spaced this far apart, spreading them over more chunks
	}{
		{k: 4, per: 25000}, {4, 25000, "+ingest", []extra{{200, 1 << 28}}, 0, 0},
		{4, 25000, "+serve-ingest", []extra{{40, 1 << 24}, {200, 1 << 28}}, 0, 0},
		{4, 25000, "-spread", nil, 0, 64},
		{k: 4, per: 250}, {k: 8, per: 5000},
		{k: 24, per: 40}, {24, 8, "+publish", []extra{{48, 1 << 24}}, 0, 0}, {24, 15, "+publish", []extra{{48, 1 << 24}}, 0, 0},
		{24, 60, "+publish", []extra{{48, 1 << 24}}, 0, 0}, {k: 64, per: 250},
		{24, 40, "-rows", nil, 24, 0}, {64, 250, "-rows", nil, 64, 0},
		{32, 500, "-2rows", nil, 2, 0}, {32, 500, "-8rows", nil, 8, 0}, {32, 500, "-16rows", nil, 16, 0},
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
	type draw struct {
		runs  [][]int
		forms []RangeIDs
	}
	paths := []struct {
		name string
		f    func(draw) []int
	}{
		{"mergeIDs", func(d draw) []int { return mergeIDs(d.forms).Items() }},
		{"concat+radix", func(d draw) []int {
			out, or := concat(d.runs)
			radixSortIDs(out, bits.Len(uint(or)))
			return out
		}},
		{"concat+sort", func(d draw) []int {
			out, _ := concat(d.runs)
			slices.Sort(out)
			return out
		}},
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%dx%d", sh.k, sh.per) + sh.tag
		rng := rand.New(rand.NewSource(int64(sh.k)))
		draws := make([]draw, max(1, 1<<17/(sh.k*sh.per)))
		for d := range draws {
			runs := ascendingRuns(rng, sh.k, sh.per)
			if sh.stride > 1 {
				for _, r := range runs {
					for j := range r {
						r[j] *= sh.stride
					}
				}
			}
			i := 0
			for _, x := range sh.extras {
				for j := range x.n {
					runs[i%sh.k] = append(runs[i%sh.k], x.base+j)
					i++
				}
			}
			for _, r := range runs[sh.k-sh.rows:] {
				rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
			}
			draws[d] = draw{runs, forms(runs)}
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
