package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// A range answer travels, and is unioned, in chunks of 2^16 ids (id >>
// chunkShift is the chunk's key). When the answer is strictly ascending, each
// chunk holding more than sparseMax of its ids is a bitmap of chunkWords words
// — Roaring's array/bitmap cut — and every other id stays in a list. The form
// follows from the ids alone, so two equal answers encode to the same bytes.
// An answer that is not strictly ascending (a small store's row order, or an
// id stored on two rows) is one plain list in its own order.
const (
	chunkShift = 16
	chunkWords = 1 << chunkShift / 64
	sparseMax  = 4096
	// minKey and maxKey bound the chunk keys of ints: key<<chunkShift and
	// every id of the chunk stay in range.
	minKey = math.MinInt >> chunkShift
	maxKey = math.MaxInt >> chunkShift
)

// RangeIDs is a range answer in its dense form (see chunkShift). Keys lists
// the bitmap chunks by ascending key; Words holds chunkWords words per key, in
// the same order, bit b of word w of chunk c standing for id
// Keys[c]<<16 | w<<6 | b. List holds the ids outside those chunks, ascending
// beside them; when Keys is empty it is the whole answer, in the answer's
// order. The zero value is the empty answer.
type RangeIDs struct {
	List  []int
	Keys  []int
	Words []uint64
}

// RangeIDsOf returns the dense form of ids. It shares ids when no chunk is
// dense, so ids must not be written while the form is in use.
func RangeIDsOf(ids []int) RangeIDs {
	ascending, dense, sparse := chunkRuns(ids)
	if !ascending || dense == 0 {
		return RangeIDs{List: ids}
	}
	out := RangeIDs{Keys: make([]int, 0, dense), Words: make([]uint64, 0, dense*chunkWords)}
	if sparse > 0 {
		out.List = make([]int, 0, sparse)
	}
	for start := 0; start < len(ids); {
		end := runEnd(ids, start)
		if end-start <= sparseMax {
			out.List = append(out.List, ids[start:end]...)
		} else {
			key := ids[start] >> chunkShift
			out.Keys = append(out.Keys, key)
			at := len(out.Words)
			out.Words = out.Words[:at+chunkWords]
			for _, id := range ids[start:end] {
				out.Words[at+id>>6&(chunkWords-1)] |= 1 << (id & 63)
			}
		}
		start = end
	}
	return out
}

// chunkRuns reports whether ids strictly ascend and, if they do, how many of
// their chunks hold more than sparseMax ids and how many ids the others hold.
// Fewer ids than one dense chunk needs are not looked at.
func chunkRuns(ids []int) (ascending bool, dense, sparse int) {
	if len(ids) <= sparseMax || !strictlyAscending(ids) {
		return false, 0, len(ids)
	}
	for start := 0; start < len(ids); {
		end := runEnd(ids, start)
		if end-start > sparseMax {
			dense++
		} else {
			sparse += end - start
		}
		start = end
	}
	return true, dense, sparse
}

func strictlyAscending(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// runEnd returns the end of the run of ascending ids from start that share
// ids[start]'s chunk, found by binary search: a run is up to 2^16 ids.
func runEnd(ids []int, start int) int {
	key := ids[start] >> chunkShift
	if key == maxKey {
		return len(ids)
	}
	n, _ := slices.BinarySearch(ids[start:], (key+1)<<chunkShift)
	return start + n
}

// Len returns how many ids the answer holds.
func (r RangeIDs) Len() int {
	n := len(r.List)
	for _, w := range r.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Items returns the answer as ids: ascending in fresh memory when it has
// bitmap chunks, else List itself (shared).
func (r RangeIDs) Items() []int {
	if len(r.Keys) == 0 {
		return r.List
	}
	return r.appendItems(nil)
}

// appendItems appends the answer's ids to dst in Items' order.
func (r RangeIDs) appendItems(dst []int) []int {
	if len(r.Keys) == 0 {
		return append(dst, r.List...)
	}
	n, total := len(dst), r.Len()
	dst = slices.Grow(dst, total)[:n+total]
	list := r.List
	for c, key := range r.Keys {
		base := key << chunkShift
		i := 0
		for i < len(list) && list[i] < base {
			i++
		}
		n += copy(dst[n:], list[:i])
		list = list[i:]
		for w, word := range r.Words[c*chunkWords : (c+1)*chunkWords] {
			for ; word != 0; word &= word - 1 {
				dst[n] = base | w<<6 | bits.TrailingZeros64(word)
				n++
			}
		}
	}
	copy(dst[n:], list)
	return dst
}

// Check refuses a form no encoder writes: one that RangeIDsOf would not
// return for the ids it holds. A decoder calls it on what it read.
func (r RangeIDs) Check() error {
	if len(r.Words) != len(r.Keys)*chunkWords {
		return fmt.Errorf("core: range answer has %d bitmap words for %d chunks", len(r.Words), len(r.Keys))
	}
	ascending, dense, _ := chunkRuns(r.List)
	if len(r.Keys) == 0 {
		if ascending && dense > 0 {
			return fmt.Errorf("core: range answer lists %d chunks of more than %d ascending ids", dense, sparseMax)
		}
		return nil
	}
	for c, key := range r.Keys {
		if key < minKey || key > maxKey {
			return fmt.Errorf("core: range answer chunk key %d out of range", key)
		}
		if c > 0 && key <= r.Keys[c-1] {
			return fmt.Errorf("core: range answer chunk keys %d, %d do not ascend", r.Keys[c-1], key)
		}
		n := 0
		for _, w := range r.Words[c*chunkWords : (c+1)*chunkWords] {
			n += bits.OnesCount64(w)
		}
		if n <= sparseMax {
			return fmt.Errorf("core: range answer bitmap chunk %d holds %d ids, want more than %d", key, n, sparseMax)
		}
	}
	if dense > 0 {
		return fmt.Errorf("core: range answer lists %d chunks of more than %d ids beside its bitmaps", dense, sparseMax)
	}
	c := 0
	for i, id := range r.List {
		if i > 0 && id <= r.List[i-1] {
			return fmt.Errorf("core: range answer list beside bitmaps does not ascend at %d", i)
		}
		key := id >> chunkShift
		for c < len(r.Keys) && r.Keys[c] < key {
			c++
		}
		if c < len(r.Keys) && r.Keys[c] == key {
			return fmt.Errorf("core: range answer lists id %d inside bitmap chunk %d", id, key)
		}
	}
	return nil
}

// chunkSet is scratch for building an answer's form from ids in any order:
// the holder's scan sets its hits' bits here, row by row. It counts the ids
// offered, so form can tell that an id was offered twice (fewer bits are set
// than ids offered) without a test per id. It holds at most maxChunks chunks;
// addIDs and addRows report false on a chunk too many. On either, the caller
// sorts the ids instead.
type chunkSet struct {
	keys    []int
	chunks  []*chunk // chunks[i] is chunk keys[i]; those past len(keys) are zeroed spares
	cur     *chunk   // the chunk of key, touched last
	key     int
	offered int
}

// chunk is one chunk's bitmap, with a summary of the words in use so that a
// sparse chunk is read and cleared without a pass over all of its words.
type chunk struct {
	words [chunkWords]uint64
	used  [chunkWords / 64]uint64 // bit w: words[w] may be non-zero
}

// maxChunks bounds a chunkSet to 130 KB of bitmaps. A store whose hits span
// more chunks answers through the sort, which is free when its ids ascend in
// row order (as a store filled in id order does) and costs a radix sort when
// they do not. No holder answer of the four benchmark workloads spans more
// than 16 (DESIGN.md §15 "The range-answer format").
const maxChunks = 16

var chunkSetPool = sync.Pool{New: func() any { return new(chunkSet) }}

// addIDs sets the bits of ids. Consecutive ids mostly share a chunk, which is
// looked up only when the key changes.
func (s *chunkSet) addIDs(ids []int) bool {
	s.offered += len(ids)
	c, key := s.cur, s.key
	for _, id := range ids {
		if c == nil || id>>chunkShift != key {
			if !s.find(id >> chunkShift) {
				return false
			}
			c, key = s.cur, s.key
		}
		c.set(id)
	}
	return true
}

// addRows sets the bits of ids[row] for every row set in rows, like addIDs.
func (s *chunkSet) addRows(rows []uint64, ids []int) bool {
	c, key := s.cur, s.key
	for w, word := range rows {
		s.offered += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			id := ids[w<<6|bits.TrailingZeros64(word)]
			if c == nil || id>>chunkShift != key {
				if !s.find(id >> chunkShift) {
					return false
				}
				c, key = s.cur, s.key
			}
			c.set(id)
		}
	}
	return true
}

// set sets id's bit in c, whose chunk id is.
func (c *chunk) set(id int) {
	w := id >> 6 & (chunkWords - 1)
	c.words[w] |= 1 << (id & 63)
	c.used[w>>6] |= 1 << (w & 63)
}

// find makes key's chunk the current one, taking a spare if it is new.
func (s *chunkSet) find(key int) bool {
	i := slices.Index(s.keys, key)
	if i < 0 {
		if len(s.keys) == maxChunks {
			return false
		}
		i = len(s.keys)
		s.keys = append(s.keys, key)
		if i == len(s.chunks) {
			s.chunks = append(s.chunks, new(chunk))
		}
	}
	s.cur, s.key = s.chunks[i], key
	return true
}

// form returns what is set as a fresh RangeIDs, the chunks' counts deciding
// their form; false if an id was offered twice.
func (s *chunkSet) form() (RangeIDs, bool) {
	var order, counts [maxChunks]int
	set, dense, sparse := 0, 0, 0
	for i, c := range s.chunks[:len(s.keys)] {
		counts[i] = c.count()
		set += counts[i]
		if counts[i] > sparseMax {
			dense++
		} else {
			sparse += counts[i]
		}
		// Insertion sort by key: there are maxChunks at most.
		j := i
		for ; j > 0 && s.keys[order[j-1]] > s.keys[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	if set < s.offered {
		return RangeIDs{}, false
	}
	var out RangeIDs
	if dense > 0 {
		out.Keys, out.Words = make([]int, 0, dense), make([]uint64, 0, dense*chunkWords)
	}
	if sparse > 0 {
		out.List = make([]int, 0, sparse)
	}
	for _, i := range order[:len(s.keys)] {
		c := s.chunks[i]
		if counts[i] > sparseMax {
			out.Keys = append(out.Keys, s.keys[i])
			out.Words = append(out.Words, c.words[:]...)
		} else {
			n := len(out.List)
			out.List = out.List[:n+counts[i]]
			c.drain(out.List[n:], s.keys[i])
		}
	}
	return out, true
}

// release clears what was set and returns s to the pool.
func (s *chunkSet) release() {
	for _, c := range s.chunks[:len(s.keys)] {
		c.clear()
	}
	s.keys, s.cur, s.offered = s.keys[:0], nil, 0
	chunkSetPool.Put(s)
}

// or ORs a chunk's bitmap into c and returns how many ids it holds.
func (c *chunk) or(words []uint64) int {
	n := 0
	for i, w := range words[:chunkWords] {
		c.words[i] |= w
		n += bits.OnesCount64(w)
	}
	for i := range c.used {
		c.used[i] = ^uint64(0)
	}
	return n
}

// count returns how many bits are set in c.
func (c *chunk) count() int {
	n := 0
	for u, used := range c.used {
		for ; used != 0; used &= used - 1 {
			n += bits.OnesCount64(c.words[u<<6|bits.TrailingZeros64(used)])
		}
	}
	return n
}

// drain writes the ids set in c, chunk key, ascending, to the front of dst,
// unsets them and returns how many it wrote. dst has room for them all.
func (c *chunk) drain(dst []int, key int) int {
	base, n := key<<chunkShift, 0
	for u, used := range c.used {
		for ; used != 0; used &= used - 1 {
			w := u<<6 | bits.TrailingZeros64(used)
			for word := c.words[w]; word != 0; word &= word - 1 {
				dst[n] = base | w<<6 | bits.TrailingZeros64(word)
				n++
			}
			c.words[w] = 0
		}
	}
	c.used = [len(c.used)]uint64{}
	return n
}

// clear unsets every bit of c.
func (c *chunk) clear() {
	for u, used := range c.used {
		if used == ^uint64(0) {
			clear(c.words[u<<6 : (u+1)<<6])
			continue
		}
		for ; used != 0; used &= used - 1 {
			c.words[u<<6|bits.TrailingZeros64(used)] = 0
		}
	}
	c.used = [len(c.used)]uint64{}
}

// mergeIDs returns the ascending multiset union of answers in fresh memory,
// leaving them alone. Answers that do not strictly ascend (a small store
// lists its ids in row order) are copied and sorted first when they hold
// fewer ids than the others; then, when no answer repeats an id and none
// shares one with another — a corpus id lives on one peer — the answers are
// walked together chunk key by chunk key and the union comes out in its
// form. Otherwise every answer is concatenated and sorted, and the union
// comes out as one list, which RangeIDsOf turns into the form when it is to
// be sent.
func mergeIDs(answers []RangeIDs) RangeIDs {
	u := unionPool.Get().(*unionScratch)
	defer unionPool.Put(u)
	if walk, ok := u.ascending(answers); ok {
		if out, ok := u.union(walk); ok {
			return out
		}
	}
	total := 0
	for _, a := range answers {
		total += a.Len()
	}
	if total == 0 {
		return RangeIDs{}
	}
	out := make([]int, 0, total)
	for _, a := range answers {
		out = a.appendItems(out)
	}
	sortIDs(out)
	return RangeIDs{List: out}
}

// unionScratch is mergeIDs' working memory, pooled: one chunk the answers'
// ids for the current key are set in, each answer's place, the bitmap
// chunks of the union as it is built, and the answers to walk with the
// sorted copies of those that do not ascend.
type unionScratch struct {
	c      chunk
	at     []unionPos
	keys   []int
	words  []uint64
	walk   []RangeIDs
	sorted []int
}

// ascending returns answers with each one that does not strictly ascend
// replaced by a sorted copy of its ids in u's memory, or answers itself when
// every one ascends. It reports false, and sorts nothing, when the answers
// that do not ascend hold half the ids or more: sorting them one by one and
// walking the union then costs as much as sorting the concatenation
// (BenchmarkMergeIDs' 32x500 shapes: 0.6x at 2 of 32 such answers, 0.8x at
// 8, even at 16). It also reports false when a sorted copy repeats an id.
func (u *unionScratch) ascending(answers []RangeIDs) ([]RangeIDs, bool) {
	ordered, unordered := 0, 0
	for _, a := range answers {
		if ascends(a) {
			ordered += a.Len()
		} else {
			unordered += a.Len()
		}
	}
	if unordered == 0 {
		return answers, true
	}
	if unordered >= ordered {
		return nil, false
	}
	walk, copied := answers, false
	u.sorted = u.sorted[:0]
	for i, a := range answers {
		if ascends(a) {
			continue
		}
		at := len(u.sorted)
		u.sorted = a.appendItems(u.sorted)
		ids := u.sorted[at:]
		sortIDs(ids)
		if !strictlyAscending(ids) {
			return nil, false
		}
		if !copied {
			u.walk = append(u.walk[:0], answers...)
			walk, copied = u.walk, true
		}
		walk[i] = RangeIDs{List: ids}
	}
	return walk, true
}

// ascends reports whether a's ids strictly ascend, as the chunk walk needs.
func ascends(a RangeIDs) bool { return strictlyAscending(a.List) && strictlyAscending(a.Keys) }

// unionPos is an answer's place in the union's walk: its next list id and
// its next bitmap chunk.
type unionPos struct{ list, chunk int }

var unionPool = sync.Pool{New: func() any { return new(unionScratch) }}

// union builds the union of ascending answers one chunk key at a time, in
// ascending key order, so one chunk of scratch serves any number of keys.
// Each chunk counts the ids offered to it against the bits they set: fewer
// bits means an id two answers share, and union reports false.
func (u *unionScratch) union(answers []RangeIDs) (RangeIDs, bool) {
	u.at = append(u.at[:0], make([]unionPos, len(answers))...)
	u.keys, u.words = u.keys[:0], u.words[:0]
	// listed counts the list ids not yet walked: a bitmap chunk holds more
	// than sparseMax ids, so the union's list is made of list ids only and
	// is allocated once, at its first id, for all that are left.
	listed := 0
	for _, a := range answers {
		listed += len(a.List)
	}
	var list []int
	c := &u.c
	key, found := 0, false
	for i, a := range answers {
		key, found = u.at[i].lowest(a, key, found)
	}
	for found {
		offered, left := 0, listed
		next, more := 0, false
		for i, a := range answers {
			at := &u.at[i]
			if at.chunk < len(a.Keys) && a.Keys[at.chunk] == key {
				offered += c.or(a.Words[at.chunk*chunkWords : (at.chunk+1)*chunkWords])
				at.chunk++
			}
			if at.list < len(a.List) && a.List[at.list]>>chunkShift == key {
				end := runEnd(a.List, at.list)
				for _, id := range a.List[at.list:end] {
					c.set(id)
				}
				offered += end - at.list
				listed -= end - at.list
				at.list = end
			}
			next, more = at.lowest(a, next, more)
		}
		// A chunk of sparseMax ids offered or fewer cannot be dense, so it is
		// listed without a count first.
		ok := true
		if offered > sparseMax {
			ok = c.count() == offered
			if ok {
				u.keys = append(u.keys, key)
				u.words = append(u.words, c.words[:]...)
			}
			c.clear()
		} else {
			if list == nil {
				list = make([]int, 0, left)
			}
			// The chunk holds at most offered ids, and list has room for
			// every list id not walked before this chunk.
			n := c.drain(list[len(list):len(list)+offered], key)
			list = list[:len(list)+n]
			ok = n == offered
		}
		if !ok {
			return RangeIDs{}, false
		}
		key, found = next, more
	}
	out := RangeIDs{List: list}
	if len(u.keys) > 0 {
		out.Keys, out.Words = slices.Clone(u.keys), slices.Clone(u.words)
	}
	return out, true
}

// lowest returns the lower of key, if found, and the key of a's next chunk
// from at; found is false while neither exists.
func (at unionPos) lowest(a RangeIDs, key int, found bool) (int, bool) {
	if at.list < len(a.List) && (!found || a.List[at.list]>>chunkShift < key) {
		key, found = a.List[at.list]>>chunkShift, true
	}
	if at.chunk < len(a.Keys) && (!found || a.Keys[at.chunk] < key) {
		key, found = a.Keys[at.chunk], true
	}
	return key, found
}
