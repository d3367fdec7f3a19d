// Package wiretest holds every message a package states as a
// transport.Coder walker to the codec's contract, the same way: the package's
// test table of messages runs through Check, and its fuzz target through
// Fuzz. Only test files import it.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"hyperm/internal/transport"
)

// Message is one wire body, with seed values to check it on.
type Message struct {
	Name string
	// seeds encode one seed value each, the way production code does.
	seeds []func() []byte
	// recode decodes a body with the walker and encodes what it read again;
	// ok is false when the decoder refuses the body.
	recode func(b []byte) (out []byte, ok bool)
}

// Of lists one message: its walker, the encoder production code sends it
// with, and seed values. The encoder must call transport.Encode with the
// walker named, not through a variable: that static call is what keeps the
// encoding to the one allocation Check counts.
func Of[T any](name string, walk func(*transport.Coder, *T), encode func(*T) []byte, seeds ...T) Message {
	m := Message{Name: name, recode: func(b []byte) ([]byte, bool) {
		v, err := transport.Decode(b, walk)
		if err != nil {
			return nil, false
		}
		return encode(&v), true
	}}
	for i := range seeds {
		v := &seeds[i]
		m.seeds = append(m.seeds, func() []byte { return encode(v) })
	}
	return m
}

// Seeds returns the fuzz corpus of a package's table: each seed body behind
// the byte that picks its message (see Fuzz).
func Seeds(msgs []Message) [][]byte {
	var out [][]byte
	for i, m := range msgs {
		for _, enc := range m.seeds {
			out = append(out, append([]byte{byte(i)}, enc()...))
		}
	}
	return out
}

// Check holds every message of a table to the contract on each of its seeds:
// the seed encodes in exactly one allocation, and its body passes Conforms.
func Check(t *testing.T, msgs []Message) {
	for _, m := range msgs {
		t.Run(m.Name, func(t *testing.T) {
			if len(m.seeds) == 0 {
				t.Fatal("no seed values")
			}
			for i, enc := range m.seeds {
				if b := enc(); !m.Conforms(t, b) {
					t.Fatalf("seed %d refused by its own decoder: %x", i, b)
				}
				if n := testing.AllocsPerRun(20, func() { enc() }); n != 1 {
					t.Errorf("seed %d: encoding took %.0f allocations, want 1", i, n)
				}
			}
		})
	}
}

// Fuzz holds one fuzz input to the contract: raw[0] picks the message of the
// table and the rest is its body, which must be refused or pass Conforms.
func Fuzz(t *testing.T, msgs []Message, raw []byte) {
	if len(raw) == 0 {
		return
	}
	msgs[int(raw[0])%len(msgs)].Conforms(t, raw[1:])
}

// Conforms reports whether the decoder accepts b, and fails t unless every
// body it accepts is canonical — it re-encodes to itself — with none of its
// neighbours accepted but the canonical ones:
//   - no strict prefix and no trailing byte;
//   - wherever four bytes of b are set to 0xffffffff, the body is refused or
//     re-encodes to itself. At a count or a length prefix that is a refusal
//     (nothing that long fits), so every count, the leading one included, is
//     fenced by the bytes that remain.
func (m Message) Conforms(t *testing.T, b []byte) bool {
	t.Helper()
	out, ok := m.recode(b)
	if !ok {
		return false
	}
	if !bytes.Equal(out, b) {
		t.Fatalf("%s: decoded body re-encodes to other bytes:\nin:  %x\nout: %x", m.Name, b, out)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, ok := m.recode(b[:cut]); ok {
			t.Fatalf("%s: strict prefix of %d bytes (of %d) accepted", m.Name, cut, len(b))
		}
	}
	if _, ok := m.recode(append(slices.Clip(b), 0)); ok {
		t.Fatalf("%s: body with a trailing byte accepted", m.Name)
	}
	w := bytes.Clone(b)
	for at := 0; at+4 <= len(b); at++ {
		copy(w, b)
		binary.BigEndian.PutUint32(w[at:], math.MaxUint32)
		if out, ok := m.recode(w); ok && !bytes.Equal(out, w) {
			t.Fatalf("%s: 0xffffffff at offset %d accepted, re-encoded to other bytes:\nin:  %x\nout: %x", m.Name, at, w, out)
		}
	}
	return true
}
