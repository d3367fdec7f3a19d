package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder builds a binary message body: fixed-width big-endian integers,
// IEEE-754 bit-exact floats, and length-prefixed sequences. The format is
// deliberately trivial — no reflection, and varints only in the one id-run
// codec (IntsDelta) — so that encode(decode) round-trips are bit-identical,
// which the serving runtime's determinism oracle depends on (float64
// coordinates must survive the wire untouched).
//
// The zero value is ready to use.
type Encoder struct{ b []byte }

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.b }

// Grow ensures capacity for n more bytes, so encoders that can size their
// message up front pay one allocation instead of a doubling chain.
func (e *Encoder) Grow(n int) {
	if cap(e.b)-len(e.b) < n {
		nb := make([]byte, len(e.b), len(e.b)+n)
		copy(nb, e.b)
		e.b = nb
	}
}

// Len returns the number of bytes encoded so far: the offset the next append
// lands at, which is what SetU32 takes.
func (e *Encoder) Len() int { return len(e.b) }

// SetU32 overwrites the uint32 at offset at — how an encoder prefixes a
// sub-message with its length without sizing it first: reserve with U32(0),
// append the sub-message, then set the prefix from Len.
func (e *Encoder) SetU32(at int, v uint32) { binary.BigEndian.PutUint32(e.b[at:], v) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.b = append(e.b, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }

// U64 appends a big-endian uint64 (state version counters).
func (e *Encoder) U64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }

// Int appends an int as a big-endian int64.
func (e *Encoder) Int(v int) { e.b = binary.BigEndian.AppendUint64(e.b, uint64(int64(v))) }

// F64 appends a float64 bit pattern.
func (e *Encoder) F64(v float64) { e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v)) }

// Floats appends a length-prefixed []float64. The fixed-width format makes
// the size exact, so the whole sequence costs at most one allocation.
func (e *Encoder) Floats(v []float64) {
	e.Grow(4 + 8*len(v))
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Ints appends a length-prefixed []int (sized up front, like Floats).
func (e *Encoder) Ints(v []int) {
	e.Grow(4 + 8*len(v))
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// IntsDelta appends a []int as a count followed by one zig-zag uvarint per
// element, each the difference from the element before it (the first from
// zero). An ascending run of nearby ids — a range answer — costs about one
// byte per id instead of eight; any other order still round-trips, at up to
// ten bytes per element. Neighbouring elements must differ by less than 2^63
// (ids of either sign within 2^62 of zero always do): the decoder rejects a
// wider step as overflow.
func (e *Encoder) IntsDelta(v []int) {
	// One byte per element plus an eighth covers dense runs with the odd wide
	// gap; a sparser run falls back on append's growth.
	e.Grow(4 + len(v) + len(v)/8 + binary.MaxVarintLen64)
	e.U32(uint32(len(v)))
	prev := 0
	for _, x := range v {
		d := int64(x - prev)
		prev = x
		if u := uint64(d<<1) ^ uint64(d>>63); u < 0x80 {
			e.b = append(e.b, byte(u))
		} else {
			e.b = binary.AppendUvarint(e.b, u)
		}
	}
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.Grow(4 + len(s))
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Decoder reads a message produced by Encoder. Errors are sticky: after the
// first short read every accessor returns zero values, and Err/Finish report
// the failure — callers check once at the end instead of after every field.
//
// The FloatsShared/IntsShared variants decode into a chunked arena owned by
// the decoder instead of allocating one slice per sequence: a message that
// carries hundreds of short vectors (views, record lists, item batches) costs
// a handful of block allocations rather than one per vector. The returned
// slices stay valid for as long as anything references them — the blocks are
// ordinary GC-managed memory, never a view of a transport buffer — so callers
// may retain them under the usual shared-read contract, or copy explicitly
// when they need private mutable storage (store.Append is such a copy point).
type Decoder struct {
	b   []byte
	off int
	err error

	// arena blocks for FloatsShared; a block is never reallocated once handed
	// out, so subslices of it are stable.
	farena []float64
	iarena []int
}

// NewDecoder wraps an encoded message.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first decode error, or an error if trailing bytes
// remain — a message must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("transport: %d trailing bytes in message", len(d.b)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = fmt.Errorf("transport: truncated message: want %d bytes at offset %d, have %d", n, d.off, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int(int64(binary.BigEndian.Uint64(b)))
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// Count reads a sequence count and bounds it by the remaining payload, given
// the minimum bytes one element can encode to: a corrupt or adversarial
// prefix cannot force a huge allocation, it trips the sticky error instead.
// Composite decoders (zone lists, record lists) must use this rather than a
// raw U32 before sizing a slice.
func (d *Decoder) Count(minElemSize int) int {
	return d.seqLen(minElemSize)
}

// len reads a sequence length and bounds it by the remaining payload so a
// corrupt prefix cannot force a huge allocation.
func (d *Decoder) seqLen(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*elemSize > len(d.b)-d.off {
		d.err = fmt.Errorf("transport: sequence length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

// Floats reads a length-prefixed []float64 (nil when empty).
func (d *Decoder) Floats() []float64 {
	n := d.seqLen(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Ints reads a length-prefixed []int (nil when empty).
func (d *Decoder) Ints() []int {
	n := d.seqLen(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// arenaBlock is the float/int capacity of one decoder arena block. Big
// enough that a typical message decodes from one or two blocks, small enough
// that retaining a few vectors from a message doesn't pin megabytes.
const arenaBlock = 4096

// FloatsShared reads a length-prefixed []float64 into the decoder's arena:
// same bytes as Floats, but amortized allocation (see the Decoder comment for
// the retention contract). Sequences longer than a block get a dedicated
// exact-size allocation.
func (d *Decoder) FloatsShared() []float64 {
	n := d.seqLen(8)
	if d.err != nil || n == 0 {
		return nil
	}
	if n > arenaBlock {
		out := make([]float64, n)
		for i := range out {
			out[i] = d.F64()
		}
		return out
	}
	if cap(d.farena)-len(d.farena) < n {
		// Every future sequence decodes from this message, so its remaining
		// length bounds the block: small messages get small blocks (retaining
		// a decoded slice never pins more than ~the message), large ones
		// amortize across arenaBlock-sized chunks.
		d.farena = make([]float64, 0, blockCap(n, (len(d.b)-d.off)/8))
	}
	base := len(d.farena)
	for i := 0; i < n; i++ {
		d.farena = append(d.farena, d.F64())
	}
	return d.farena[base : base+n : base+n]
}

// blockCap sizes a fresh arena block: the elements the rest of the message
// can still hold cap the useful capacity, arenaBlock caps the chunk, and the
// sequence being decoded (already validated to fit the message) sets the
// floor.
func blockCap(n, maxElems int) int {
	return max(n, min(maxElems, arenaBlock))
}

// IntsShared reads a length-prefixed []int into the decoder's arena (the
// []int twin of FloatsShared).
func (d *Decoder) IntsShared() []int {
	n := d.seqLen(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := d.arenaInts(n, (len(d.b)-d.off)/8)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// arenaInts returns room for n ints: a slice of the int arena, or a dedicated
// exact-size allocation beyond a block. maxElems is how many elements the
// rest of the message can still hold, which bounds a fresh block.
func (d *Decoder) arenaInts(n, maxElems int) []int {
	if n > arenaBlock {
		return make([]int, n)
	}
	if cap(d.iarena)-len(d.iarena) < n {
		d.iarena = make([]int, 0, blockCap(n, maxElems))
	}
	base := len(d.iarena)
	d.iarena = d.iarena[:base+n]
	return d.iarena[base : base+n : base+n]
}

// IntsDeltaShared reads a sequence written by Encoder.IntsDelta into the
// decoder's arena (exact-size allocation beyond a block, like IntsShared).
// An element takes at least one byte, so the count is fenced by the bytes
// that remain; a malformed varint or a running sum that leaves int64 trips
// the sticky error and yields nil.
func (d *Decoder) IntsDeltaShared() []int {
	n := d.seqLen(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := d.arenaInts(n, len(d.b)-d.off)
	b := d.b[d.off:]
	pos := 0
	var cur int64
	for i := range out {
		var u uint64
		if pos < len(b) && b[pos] < 0x80 {
			u = uint64(b[pos])
			pos++
		} else {
			v, w := binary.Uvarint(b[pos:])
			if w <= 0 {
				d.err = fmt.Errorf("transport: malformed varint at offset %d", d.off+pos)
				return nil
			}
			u = v
			pos += w
		}
		delta := int64(u>>1) ^ -int64(u&1)
		next := cur + delta
		if (next > cur) != (delta > 0) {
			d.err = fmt.Errorf("transport: delta-coded sequence overflows at element %d", i)
			return nil
		}
		cur = next
		out[i] = int(cur)
	}
	d.off += pos
	return out
}

// Bytes reads a uint32 length and returns that many bytes as a slice of the
// message itself (nil when empty) — a sub-message to be decoded later, or not
// at all. No copy, so no allocation a corrupt length could inflate: a length
// beyond the remaining bytes trips the sticky error.
func (d *Decoder) Bytes() []byte {
	n := d.seqLen(1)
	if d.err != nil || n == 0 {
		return nil
	}
	return d.take(n)[:n:n]
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.seqLen(1)
	if d.err != nil || n == 0 {
		return ""
	}
	return string(d.take(n))
}
