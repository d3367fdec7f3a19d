package core

import (
	"math/bits"
	"slices"
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
// negative id go to slices.Sort; sorted ones (a holder whose ids ascend in row
// order) are only read.
func sortIDs(ids []int) {
	if slices.IsSorted(ids) {
		return
	}
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
