package core

import (
	"math/bits"
	"slices"
)

// radixMinLen is the length below which a comparison sort beats setting up
// the radix passes.
const radixMinLen = 256

// sortIDs sorts item ids ascending in O(n): an LSD radix sort over 11-bit
// digits, with as many passes as the largest id needs (two for ids below
// 4M). A range answer over large stores concatenates ~10^5 ids, where the
// comparison sort was the largest cost left after the holder scans. Short
// inputs and inputs with a negative id go to slices.Sort.
func sortIDs(ids []int) {
	var or int
	for _, v := range ids {
		or |= v
	}
	if len(ids) < radixMinLen || or < 0 {
		slices.Sort(ids)
		return
	}
	const digitBits = 11
	const mask = 1<<digitBits - 1
	src, dst := ids, make([]int, len(ids))
	for shift := 0; shift < bits.Len(uint(or)); shift += digitBits {
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
