package route

import "math/bits"

// idSet is the set of node ids or record seqs a machine has visited or seen:
// open addressing with linear probing over a power-of-two table kept at most
// half full, so a lookup visit costs a multiply and a probe or two, and no
// map operation. The multiplicative (Fibonacci) hash takes the product's top
// bits, which spreads the simulator's dense seqs, the streamed records'
// 1<<40-offset seqs and keys that are multiples of the table size alike. The
// zero value is an empty set.
type idSet struct {
	slots    []int // emptySlot where free
	n        int   // ids held in slots
	shift    uint  // 64 - log2(len(slots))
	hasEmpty bool  // the set holds emptySlot's own value
}

// emptySlot marks a free slot, so a fresh table needs no filling; the id
// equal to it is kept in hasEmpty.
const emptySlot = 0

// idSetMinSlots is the smallest table.
const idSetMinSlots = 8

// newIDSet returns a set that holds hint ids without growing.
func newIDSet(hint int) idSet {
	var s idSet
	size := idSetMinSlots
	for size < 2*hint {
		size <<= 1
	}
	s.resize(size)
	return s
}

// has reports whether id is in the set.
func (s *idSet) has(id int) bool {
	if id == emptySlot {
		return s.hasEmpty
	}
	if s.n == 0 {
		return false
	}
	_, found := s.find(id)
	return found
}

// add inserts id and reports whether it was absent.
func (s *idSet) add(id int) bool {
	if id == emptySlot {
		added := !s.hasEmpty
		s.hasEmpty = true
		return added
	}
	if len(s.slots) == 0 {
		s.resize(idSetMinSlots)
	}
	i, found := s.find(id)
	if found {
		return false
	}
	if 2*(s.n+1) > len(s.slots) {
		s.resize(2 * len(s.slots))
		i, _ = s.find(id)
	}
	s.slots[i] = id
	s.n++
	return true
}

// find returns id's slot, or the free slot its probe ends at.
func (s *idSet) find(id int) (int, bool) {
	mask := len(s.slots) - 1
	for i := int(uint64(id) * 0x9E3779B97F4A7C15 >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case id:
			return i, true
		case emptySlot:
			return i, false
		}
	}
}

// resize rehashes the set into a table of size slots (a power of two).
func (s *idSet) resize(size int) {
	old := s.slots
	s.slots = make([]int, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, id := range old {
		if id != emptySlot {
			i, _ := s.find(id)
			s.slots[i] = id
		}
	}
}
