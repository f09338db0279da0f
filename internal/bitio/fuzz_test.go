package bitio

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refWriter and refReader are the bit-at-a-time codec: one bit per step,
// no chunking. They are the oracle the byte-chunked Writer and Reader
// must match bit for bit.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) writeBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

func (w *refWriter) writeUint(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.writeBit(v>>uint(i)&1 == 1)
	}
}

func (w *refWriter) writeUvarint(v uint64) {
	for {
		group := v & 0xF
		v >>= 4
		w.writeBit(v != 0)
		w.writeUint(group, 4)
		if v == 0 {
			return
		}
	}
}

type refReader struct {
	buf       []byte
	pos, nbit int
}

func (r *refReader) readBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOverflow
	}
	b := r.buf[r.pos/8]>>(7-uint(r.pos%8))&1 == 1
	r.pos++
	return b, nil
}

func (r *refReader) readUint(width int) (uint64, error) {
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

func (r *refReader) readUvarint() (uint64, error) {
	var v uint64
	shift := 0
	for {
		cont, err := r.readBit()
		if err != nil {
			return 0, err
		}
		group, err := r.readUint(4)
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, ErrRange
		}
		v |= group << uint(shift)
		shift += 4
		if !cont {
			return v, nil
		}
	}
}

// program decodes fuzz bytes into codec operations: an opcode byte, a
// width byte and an 8-byte value per op.
type program struct{ data []byte }

func (p *program) next() (op byte, width int, v uint64, ok bool) {
	if len(p.data) < 10 {
		return 0, 0, 0, false
	}
	op, width = p.data[0], int(p.data[1]%65)
	v = binary.LittleEndian.Uint64(p.data[2:10])
	p.data = p.data[10:]
	return op, width, v, true
}

// FuzzBitioMatchesReference runs a random write program through Writer
// and the bit-at-a-time oracle, then a random read program (over a
// random prefix of the stream, so reads overflow) through Reader and the
// oracle reader. Bytes, lengths, values, errors and Remaining must agree.
func FuzzBitioMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 5, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 3, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(3))
	f.Add(bytes.Repeat([]byte{1, 64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 3),
		bytes.Repeat([]byte{2, 17, 0, 0, 0, 0, 0, 0, 0, 0}, 20), uint16(500))
	f.Add([]byte{2, 0, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
		[]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(0xffff))
	f.Fuzz(func(t *testing.T, writes, reads []byte, cut uint16) {
		var w Writer
		var ref refWriter
		wp := program{writes}
		for {
			op, width, v, ok := wp.next()
			if !ok {
				break
			}
			switch op % 3 {
			case 0:
				w.WriteBit(v&1 == 1)
				ref.writeBit(v&1 == 1)
			case 1:
				if width < 64 {
					v &= 1<<uint(width) - 1
				}
				w.WriteUint(v, width)
				ref.writeUint(v, width)
			case 2:
				w.WriteUvarint(v)
				ref.writeUvarint(v)
			}
		}
		if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("writer: %d bits %x, oracle %d bits %x", w.Len(), w.Bytes(), ref.nbit, ref.buf)
		}
		nbit := 0
		if w.Len() > 0 {
			nbit = int(cut) % (w.Len() + 1)
		}
		r := NewReader(w.Bytes(), nbit)
		rr := refReader{buf: ref.buf, nbit: nbit}
		rp := program{reads}
		for i := 0; ; i++ {
			op, width, _, ok := rp.next()
			if !ok {
				break
			}
			var got, want uint64
			var gerr, werr error
			switch op % 3 {
			case 0:
				gb, e1 := r.ReadBit()
				wb, e2 := rr.readBit()
				got, want, gerr, werr = b2u(gb), b2u(wb), e1, e2
			case 1:
				got, gerr = r.ReadUint(width)
				want, werr = rr.readUint(width)
			case 2:
				got, gerr = r.ReadUvarint()
				want, werr = rr.readUvarint()
			}
			if got != want || gerr != werr || r.Remaining() != rr.nbit-rr.pos {
				t.Fatalf("read %d (op %d, width %d): got %d, %v, %d left; oracle %d, %v, %d left",
					i, op%3, width, got, gerr, r.Remaining(), want, werr, rr.nbit-rr.pos)
			}
		}
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestReaderClampsBitLength: a bit length that claims more (or less)
// than the buffer holds reads as the buffer's own bits, ending in
// ErrOverflow instead of an index past the buffer.
func TestReaderClampsBitLength(t *testing.T) {
	for _, tc := range []struct {
		buf  []byte
		nbit int
		want int
	}{
		{nil, 100, 0},
		{[]byte{0xa5}, 1 << 30, 8},
		{[]byte{0xa5, 0x0f}, 12, 12},
		{[]byte{0xa5}, -7, 0},
	} {
		r := NewReader(tc.buf, tc.nbit)
		if r.Remaining() != tc.want {
			t.Fatalf("NewReader(%x, %d).Remaining() = %d, want %d", tc.buf, tc.nbit, r.Remaining(), tc.want)
		}
		if _, err := r.ReadUint(64); err != ErrOverflow {
			t.Fatalf("NewReader(%x, %d): 64-bit read err = %v, want ErrOverflow", tc.buf, tc.nbit, err)
		}
		if _, err := r.ReadUvarint(); err != ErrOverflow {
			t.Fatalf("NewReader(%x, %d): uvarint after overflow err = %v, want ErrOverflow", tc.buf, tc.nbit, err)
		}
		if _, err := r.ReadBit(); err != ErrOverflow || r.Remaining() != 0 {
			t.Fatalf("NewReader(%x, %d): bit after overflow err = %v, %d left", tc.buf, tc.nbit, err, r.Remaining())
		}
	}
}
