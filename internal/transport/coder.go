package transport

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Coder walks one message body field by field in one of three modes: size
// (count the bytes the body takes), encode (append them to an Encoder) or
// decode (read them from a Decoder into the fields). A message's walker, a
// func(*Coder, *T) that hands each field of *T to one field method in wire
// order, is therefore the only statement of its layout: Size, Encode and
// Decode all run it. Decoded vectors land in the decoder's arena
// (FloatsShared), under its retention contract.
//
// Decoding is sticky like the Decoder's: after a short read or a Fail every
// later field reads as its zero value.
type Coder struct {
	d      *Decoder // decode mode
	e      *Encoder // encode mode
	sizing bool
	n      int // size mode: the bytes walked so far
}

// Size returns the wire size of *v. It counts every field whatever the
// values, so the size of an element type's least value (Size(new(E), walk)
// for most) is the fence List takes.
func Size[T any](v *T, walk func(*Coder, *T)) int {
	c := Coder{sizing: true}
	walk(&c, v)
	return c.n
}

// Encode returns *v's body: one walk sizes it, one allocation holds it, a
// second walk writes it. Encode and Decode inline, so a walker named at the
// call is called directly and nothing but the body leaves the caller's stack.
func Encode[T any](v *T, walk func(*Coder, *T)) []byte {
	var e Encoder
	c := Coder{e: &e, sizing: true}
	for ; ; c.sizing = false { // one call site: two would not inline
		walk(&c, v)
		if !c.sizing {
			return e.b
		}
		e.b = make([]byte, 0, c.n)
	}
}

// Append writes *v's body after what e already holds, growing e once.
func Append[T any](e *Encoder, v *T, walk func(*Coder, *T)) {
	e.Grow(Size(v, walk))
	walk(&Coder{e: e}, v)
}

// Decode reads the value b carries, which must take all of it.
func Decode[T any](b []byte, walk func(*Coder, *T)) (T, error) {
	var v T
	d := Decoder{b: b}
	walk(&Coder{d: &d}, &v)
	return v, d.Finish()
}

// Read reads one value from d and leaves whatever follows it to the caller;
// d's sticky error reports a failure.
func Read[T any](d *Decoder, walk func(*Coder, *T)) (v T) {
	walk(&Coder{d: d}, &v)
	return v
}

// Decoding reports whether the walk reads fields rather than writes them. A
// walker that rebuilds a field from what the wire carries — a payload boxed in
// an interface, booleans packed into a flag byte — stores it only then.
func (c *Coder) Decoding() bool { return c.d != nil }

// Fail refuses a decoded body, one no encoder writes; the first failure is
// what Decode returns. Sizing or encoding, a walker fails only on a value its
// caller had no business sending, which is a bug: Fail panics.
func (c *Coder) Fail(err error) {
	switch {
	case c.d == nil:
		panic(err)
	case c.d.err == nil:
		c.d.err = err
	}
}

// U8 walks one byte.
func (c *Coder) U8(v *uint8) {
	switch {
	case c.d != nil:
		if b := c.d.take(1); b != nil {
			*v = b[0]
		}
	case c.sizing:
		c.n++
	default:
		c.e.b = append(c.e.b, *v)
	}
}

// Int walks an int as a big-endian int64.
func (c *Coder) Int(v *int) {
	switch {
	case c.d != nil:
		*v = c.d.Int()
	case c.sizing:
		c.n += 8
	default:
		c.e.b = binary.BigEndian.AppendUint64(c.e.b, uint64(*v))
	}
}

// F64 walks a float64 bit pattern.
func (c *Coder) F64(v *float64) {
	switch {
	case c.d != nil:
		*v = c.d.F64()
	case c.sizing:
		c.n += 8
	default:
		c.e.F64(*v)
	}
}

// Floats walks a length-prefixed []float64 (decoded nil when empty).
func (c *Coder) Floats(v *[]float64) {
	switch {
	case c.d != nil:
		*v = c.d.FloatsShared()
	case c.sizing:
		c.n += 4 + 8*len(*v)
	default:
		c.e.Floats(*v)
	}
}

// Ints walks a length-prefixed []int (decoded into the arena, nil when
// empty).
func (c *Coder) Ints(v *[]int) {
	switch {
	case c.d != nil:
		*v = nil
		if n := c.d.Count(8); n > 0 {
			*v = c.d.arenaInts(n, (len(c.d.b)-c.d.off)/8)
			for i := range *v {
				(*v)[i] = c.d.Int()
			}
		}
	case c.sizing:
		c.n += 4 + 8*len(*v)
	default:
		c.e.U32(uint32(len(*v)))
		for _, x := range *v {
			c.e.b = binary.BigEndian.AppendUint64(c.e.b, uint64(x))
		}
	}
}

// IntsDelta walks a []int as a count followed by one zig-zag uvarint per
// element, each the difference from the element before it (the first from
// zero). An ascending run of nearby ids — a range answer — costs about one
// byte per id instead of eight; any other order still round-trips, at up to
// ten bytes per element. Neighbouring elements must differ by less than 2^63
// (ids of either sign within 2^62 of zero always do): the decoder rejects a
// wider step as overflow (Decoder.IntsDeltaShared).
func (c *Coder) IntsDelta(v *[]int) {
	switch {
	case c.d != nil:
		*v = c.d.IntsDeltaShared()
	case c.sizing:
		n, prev := 4, 0
		for _, x := range *v {
			n += (bits.Len64(zigzag(x-prev)|1) + 6) / 7
			prev = x
		}
		c.n += n
	default:
		b, prev := binary.BigEndian.AppendUint32(c.e.b, uint32(len(*v))), 0
		for _, x := range *v {
			if u := zigzag(x - prev); u < 0x80 {
				b = append(b, byte(u))
			} else {
				b = binary.AppendUvarint(b, u)
			}
			prev = x
		}
		c.e.b = b
	}
}

// zigzag maps a step between neighbouring ids to the unsigned value its
// uvarint carries: small steps of either sign take one byte.
func zigzag(step int) uint64 {
	d := int64(step)
	return uint64(d<<1) ^ uint64(d>>63)
}

// String walks a length-prefixed string.
func (c *Coder) String(v *string) {
	switch {
	case c.d != nil:
		if n := c.d.Count(1); n > 0 {
			*v = string(c.d.take(n))
		}
	case c.sizing:
		c.n += 4 + len(*v)
	default:
		c.e.U32(uint32(len(*v)))
		c.e.b = append(c.e.b, *v...)
	}
}

// List walks the count of a count-prefixed list and returns the list, for
// the caller to walk element by element: *s itself when sizing or encoding,
// and when decoding a fresh slice of the count read (nil when it is zero),
// stored in *s. minSize is the wire size of the least element the list can
// carry, which fences the count by the bytes that remain (Decoder.Count):
// Size of the element walker, worked out once when the package loads.
func List[E any](c *Coder, s *[]E, minSize int) []E {
	switch {
	case c.d != nil:
		*s = nil
		if n := c.d.Count(minSize); n > 0 {
			*s = make([]E, n)
		}
	case c.sizing:
		c.n += 4
	default:
		c.e.U32(uint32(len(*s)))
	}
	return *s
}

// Begin walks the uint32 byte length in front of a sub-message, a body the
// receiver can cut out without decoding it (Decoder.Bytes), and End closes
// it. A zero length stands for no body at all, so a body that is there must
// take a byte or more. Decoding, Begin stores whether a body follows in
// *present. The walker then walks the body if *present and hands End the mark
// Begin returned; an absent body keeps the zero length Begin wrote.
func (c *Coder) Begin(present *bool) (mark int) {
	switch {
	case c.d != nil:
		n := c.d.Count(1)
		*present = n > 0
		return c.d.off + n
	case c.sizing:
		c.n += 4
	default:
		mark = len(c.e.b)
		c.e.U32(0) // End writes the length once the body is in
	}
	return mark
}

// End closes the sub-message Begin opened at mark. Decoding, the body must
// have taken exactly the length in front of it.
func (c *Coder) End(mark int) {
	switch {
	case c.d != nil:
		if c.d.err == nil && c.d.off != mark {
			c.d.err = fmt.Errorf("transport: sub-message ends at offset %d, its length says %d", c.d.off, mark)
		}
	case !c.sizing:
		binary.BigEndian.PutUint32(c.e.b[mark:], uint32(len(c.e.b)-mark-4))
	}
}
