// Package bitio implements bit-granular encoding and decoding of protocol
// messages, together with exact size accounting.
//
// The CONGEST model bounds every message to O(log N) bits, so the simulator
// must know the exact bit length of everything a protocol puts on the wire.
// All protocol codecs in this repository are written against bitio so that
// the dynamic-network engine can enforce the per-message bit budget and the
// two-party reduction harness can charge Alice and Bob the exact number of
// bits they exchange.
package bitio

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrOverflow is returned when a read runs past the end of the bit stream.
var ErrOverflow = errors.New("bitio: read past end of stream")

// ErrRange is returned when a decoded value does not fit its declared width.
var ErrRange = errors.New("bitio: value out of range")

// Writer accumulates bits most-significant-bit first into a byte slice.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the encoded bytes. The final byte is zero padded.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, retaining the underlying buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteUint appends v using exactly width bits, most significant bit first.
// It panics if v does not fit in width bits: message layouts are fixed by the
// protocol designer, so an overflow is a programming error, not input error.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		//lint:allow panicfree message layouts are fixed by the protocol designer; a bad width is a programming error
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		//lint:allow panicfree an overflowing field is a protocol-design bug, not runtime input
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", v, width))
	}
	// Fill the last byte's free low bits, then whole bytes: at most eight
	// bits per step. len(buf) == ceil(nbit/8) always holds, so the byte
	// being filled is the last one.
	for width > 0 {
		off := w.nbit & 7
		if off == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - off
		k := free
		if width < k {
			k = width
		}
		width -= k
		chunk := byte(v>>uint(width)) & byte(1<<uint(k)-1)
		w.buf[len(w.buf)-1] |= chunk << uint(free-k)
		w.nbit += k
	}
}

// WriteBool appends a boolean as one bit.
func (w *Writer) WriteBool(b bool) { w.WriteBit(b) }

// WriteUvarint appends v in a bit-granular variable-length encoding:
// groups of 4 value bits, each preceded by a continuation bit.
// Small values (the common case for ids and counters) stay small while the
// encoding remains self-delimiting, which the codecs rely on.
func (w *Writer) WriteUvarint(v uint64) {
	for {
		group := v & 0xF
		v >>= 4
		if v != 0 {
			group |= 0x10 // continuation bit, written before the group
		}
		w.WriteUint(group, 5)
		if v == 0 {
			return
		}
	}
}

// UvarintLen returns the number of bits WriteUvarint uses for v.
func UvarintLen(v uint64) int {
	groups := 1
	for v >>= 4; v != 0; v >>= 4 {
		groups++
	}
	return groups * 5
}

// WidthFor returns the minimum number of bits needed to represent any value
// in [0, n-1]; WidthFor(0) and WidthFor(1) return 1 so that a field is never
// zero-width.
func WidthFor(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len64(uint64(n - 1))
}

// Reader consumes bits written by Writer.
type Reader struct {
	buf  []byte
	pos  int // next bit to read
	nbit int // total valid bits
}

// NewReader returns a Reader over the first nbit bits of buf. nbit is
// clamped to [0, 8*len(buf)]: a bit length that claims more than the
// buffer holds (a malformed or hostile message) reads as a short stream
// ending in ErrOverflow, never as an index past buf.
func NewReader(buf []byte, nbit int) *Reader {
	if nbit < 0 {
		nbit = 0
	}
	if max := 8 * len(buf); nbit > max {
		nbit = max
	}
	return &Reader{buf: buf, nbit: nbit}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOverflow
	}
	b := r.buf[r.pos/8]>>(7-uint(r.pos%8))&1 == 1
	r.pos++
	return b, nil
}

// ReadUint consumes width bits and returns them as an unsigned integer.
// A read that runs past the end consumes the rest of the stream and
// returns ErrOverflow.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d: %w", width, ErrRange)
	}
	if width > r.nbit-r.pos {
		r.pos = r.nbit
		return 0, ErrOverflow
	}
	// Take the rest of the current byte, then whole bytes: at most eight
	// bits per step.
	var v uint64
	for width > 0 {
		avail := 8 - r.pos&7
		k := avail
		if width < k {
			k = width
		}
		chunk := r.buf[r.pos>>3] >> uint(avail-k) & byte(1<<uint(k)-1)
		v = v<<uint(k) | uint64(chunk)
		r.pos += k
		width -= k
	}
	return v, nil
}

// ReadBool consumes one bit as a boolean.
func (r *Reader) ReadBool() (bool, error) { return r.ReadBit() }

// ReadUvarint consumes a value written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	shift := 0
	for {
		group, err := r.ReadUint(5) // continuation bit, then 4 value bits
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, ErrRange
		}
		v |= group & 0xF << uint(shift)
		shift += 4
		if group&0x10 == 0 {
			return v, nil
		}
	}
}
