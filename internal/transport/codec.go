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

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }

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

// Decoder reads a message produced by Encoder. Errors are sticky: after the
// first short read every accessor returns zero values, and Finish reports the
// failure — callers check once at the end instead of after every field.
//
// Number sequences (FloatsShared, Coder.Ints) decode into a chunked arena
// owned by the decoder instead of allocating one slice per sequence: a message
// that carries hundreds of short vectors (views, record lists, item batches)
// costs a handful of block allocations rather than one per vector. The returned
// slices stay valid for as long as anything references them — the blocks are
// ordinary GC-managed memory, never a view of a transport buffer — so callers
// may retain them under the usual shared-read contract, or copy explicitly
// when they need private mutable storage (store.Append is such a copy point).
type Decoder struct {
	b   []byte
	off int
	err error

	// arena blocks; a block is never reallocated once handed out, so
	// subslices of it are stable.
	farena []float64
	iarena []int
}

// NewDecoder wraps an encoded message.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Finish returns the first decode error, or an error if trailing bytes
// remain — a message must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = trailingBytes(len(d.b) - d.off)
	}
	return d.err
}

// trailingBytes is Finish's error. It is built without a call, which keeps
// Finish, and Decode around it, cheap enough to inline.
type trailingBytes int

func (n trailingBytes) Error() string {
	return fmt.Sprintf("transport: %d trailing bytes in message", int(n))
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

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Int reads a big-endian int64 as an int.
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
// Every sequence read goes through it before sizing a slice (List does for
// the lists walkers state).
func (d *Decoder) Count(minElemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*minElemSize > len(d.b)-d.off {
		d.err = fmt.Errorf("transport: sequence length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

// arenaBlock is the float/int capacity of one decoder arena block. Big
// enough that a typical message decodes from one or two blocks, small enough
// that retaining a few vectors from a message doesn't pin megabytes.
const arenaBlock = 4096

// FloatsShared reads a length-prefixed []float64 (nil when empty) into the
// decoder's arena: one allocation per block, not per sequence (see the Decoder comment for
// the retention contract). Sequences longer than a block get a dedicated
// exact-size allocation.
func (d *Decoder) FloatsShared() []float64 {
	n := d.Count(8)
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

// IntsDeltaShared reads a sequence written by Coder.IntsDelta into the
// decoder's arena (exact-size allocation beyond a block).
// An element takes at least one byte, so the count is fenced by the bytes
// that remain; a malformed or non-minimal varint (one Coder.IntsDelta never
// writes, so the body would not re-encode to itself) or a running sum that
// leaves int64 trips the sticky error and yields nil.
func (d *Decoder) IntsDeltaShared() []int {
	n := d.Count(1)
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
			// A multi-byte varint ending in a zero byte has a shorter form.
			v, w := binary.Uvarint(b[pos:])
			if w <= 0 || b[pos+w-1] == 0 {
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
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	return d.take(n)[:n:n]
}
