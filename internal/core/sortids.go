package core

import (
	"math/bits"
	"slices"
	"sync"
)

// radixMinPerPass is the length, per radix pass the largest id needs, from
// which the radix sort beats the comparison sort: a pass costs a 2,048-bucket
// histogram whatever the length, so the break-even grows with the pass count.
// Read off BenchmarkMergeIDs' concat+radix and concat+sort paths over the
// three-pass shapes of serve-skewed (a published id of 1<<24 or more among
// 24 small answers): level at 0.24k ids, radix a quarter ahead at 0.4k and
// twice as fast at 1.5k. The benchmark rotates its inputs; on one input
// repeated the comparison sort looks three times cheaper than a coordinator
// pays for it, and 1.5k ids seem to fall on its side.
const radixMinPerPass = 128

// sortIDs sorts item ids ascending: in O(n) by an LSD radix sort over 11-bit
// digits, with as many passes as the largest id needs (two for ids below
// 4M), when the input is long enough to pay for the passes. A range answer
// over large stores concatenates ~10^5 ids, where the comparison sort was the
// largest cost left after the holder scans. Shorter inputs and inputs with a
// negative id go to slices.Sort.
func sortIDs(ids []int) {
	var or int
	for _, v := range ids {
		or |= v
	}
	width := bits.Len(uint(or))
	if passes := (width + radixDigitBits - 1) / radixDigitBits; or < 0 || len(ids) < radixMinPerPass*max(passes, 1) {
		slices.Sort(ids)
		return
	}
	radixSortIDs(ids, width)
}

const radixDigitBits = 11

// radixSortIDs sorts non-negative ids of at most width bits, one pass per
// digit.
func radixSortIDs(ids []int, width int) {
	if len(ids) == 0 {
		return
	}
	const digitBits, mask = radixDigitBits, 1<<radixDigitBits - 1
	src, dst := ids, make([]int, len(ids))
	for shift := 0; shift < width; shift += digitBits {
		var count [1 << digitBits]int
		for _, v := range src {
			count[v>>shift&mask]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, v := range src {
			d := v >> shift & mask
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// mergeMaxRuns is the most runs mergeIDs merges instead of sorting. Read off
// BenchmarkMergeIDs: up to four runs are two levels of two-way merges, which
// beat the radix passes at every run length; a third level (five to eight
// runs) already loses to them, and the 24- and 64-run fetches of small-store
// clusters are far on the sorting side.
const mergeMaxRuns = 4

// mergeIDs returns the ascending multiset union of runs in a fresh slice: the
// runs may be shared (the fetch memo hands out its cached slices) and are
// only read. A few runs — the answers of large, indexed holders, ascending
// already — are merged pairwise; the result is ascending exactly when every
// run was, and is sorted like any other shape when it is not. Many runs are
// concatenated and radix-sorted.
func mergeIDs(runs [][]int) []int {
	total := 0
	var held [mergeMaxRuns][]int
	live, many := held[:0], false
	for _, r := range runs {
		total += len(r)
		switch {
		case len(r) == 0:
		case len(live) < mergeMaxRuns:
			live = append(live, r)
		default:
			many = true
		}
	}
	if total == 0 {
		return nil // keep Items nil when nothing matched
	}
	out := make([]int, total)
	if !many {
		mergeRuns(out, live)
		if slices.IsSorted(out) {
			return out
		}
		// Some run did not ascend; out is still a permutation of the union.
	} else {
		n := 0
		for _, r := range runs {
			n += copy(out[n:], r)
		}
	}
	sortIDs(out)
	return out
}

// mergeRuns merges the non-empty runs into out, whose length is their total,
// by levels of two-way merges over neighbouring runs. The levels alternate
// between out and a pooled scratch buffer of the same size, ending in out;
// runs is overwritten with the intermediate results.
func mergeRuns(out []int, runs [][]int) {
	levels := bits.Len(uint(len(runs) - 1))
	var scratch []int
	if levels > 1 {
		sp := mergeScratchPool.Get().(*[]int)
		defer mergeScratchPool.Put(sp)
		if cap(*sp) < len(out) {
			*sp = make([]int, len(out))
		}
		scratch = (*sp)[:len(out)]
	}
	for level := max(levels, 1); level > 0; level-- {
		dst := out
		if level%2 == 0 {
			dst = scratch
		}
		merged := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			a, b := runs[i], []int(nil)
			if i+1 < len(runs) {
				b = runs[i+1] // an odd run out is copied down a level
			}
			d := dst[:len(a)+len(b)]
			dst = dst[len(d):]
			mergeTwo(d, a, b)
			merged = append(merged, d)
		}
		runs = merged
	}
}

// mergeScratchPool holds mergeRuns' second buffer between calls.
var mergeScratchPool = sync.Pool{New: func() any { return new([]int) }}

// mergeTwo merges a and b into dst, len(dst) == len(a)+len(b): ascending when
// both are, a permutation of them otherwise. The inner loop runs for as many
// steps as neither input can run out in, so it carries no exhaustion test,
// and the pick compiles to conditional moves: ids interleaved across holders
// would mispredict a branch every other step.
func mergeTwo(dst, a, b []int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		steps := dst[k : k+min(len(a)-i, len(b)-j)]
		for s := range steps {
			x, y := a[i], b[j]
			v, fromA := y, 0
			if x <= y {
				v, fromA = x, 1
			}
			steps[s] = v
			i += fromA
			j += 1 - fromA
		}
		k += len(steps)
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
