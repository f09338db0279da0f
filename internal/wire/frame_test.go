package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, From: 3, Round: 17},
		{Type: FrameStep, Round: 1},
		{Type: FrameAct, Flags: FlagSend, Round: 9, From: 2, NBits: 29, Payload: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Type: FrameRelay, Flags: FlagNoFault, Round: 4, From: 1, To: 6, NBits: 8, Payload: []byte{0xff}},
		{Type: FrameStatus, Flags: FlagDecided, Round: 12, From: 0, Payload: appendOutput(-42)},
		{Type: FrameAbort, Payload: []byte("dynet: adversary returned disconnected topology in round 3")},
		{Type: FrameDeliver, Round: 1 << 20},
	}
	var buf bytes.Buffer
	for i := range frames {
		if err := WriteFrame(&buf, &frames[i]); err != nil {
			t.Fatalf("WriteFrame(%v): %v", frames[i], err)
		}
	}
	for i := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		want := frames[i]
		if got.Type != want.Type || got.Flags != want.Flags || got.Round != want.Round ||
			got.From != want.From || got.To != want.To || got.NBits != want.NBits ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame #%d round-trip: got %v, want %v", i, got, want)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after reading all frames", buf.Len())
	}
}

func TestFrameCRCMismatchReturnsParsedFrame(t *testing.T) {
	f := Frame{Type: FrameRelay, Round: 7, From: 2, To: 5, NBits: 24, Payload: []byte{1, 2, 3}}
	rec := AppendFrame(nil, &f)
	// Flip one payload bit the way the fault layer does, leaving the CRC stale.
	rec[4+frameHeaderLen] ^= 0x01

	got, err := ReadFrame(bytes.NewReader(rec))
	if !errors.Is(err, ErrCRC) {
		t.Fatalf("ReadFrame of corrupted record: err = %v, want ErrCRC", err)
	}
	if got.Type != FrameRelay || got.Round != 7 || got.From != 2 || got.To != 5 || got.NBits != 24 {
		t.Fatalf("corrupted frame not parsed alongside ErrCRC: %v", got)
	}
	if want := []byte{0, 2, 3}; !bytes.Equal(got.Payload, want) {
		t.Fatalf("corrupted payload = %v, want %v", got.Payload, want)
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 1, 9})); err == nil {
		t.Fatal("undersized length accepted")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized length accepted")
	}
}

// TestReadFrameRejectsInconsistentNBits: a message bit length the payload
// cannot hold is a transport error, even under a valid checksum, so a
// peer cannot steer a receiver's bitio.Reader past its buffer. The same
// bound holds for messages inside a replay log.
func TestReadFrameRejectsInconsistentNBits(t *testing.T) {
	for _, tc := range []struct {
		nbits   int32
		payload []byte
		ok      bool
	}{
		{0, nil, true},
		{24, []byte{1, 2, 3}, true},
		{17, []byte{1, 2, 3}, true},
		{25, []byte{1, 2, 3}, false},
		{1, nil, false},
		{-1, []byte{1}, false},
		{1 << 30, []byte{1, 2}, false},
	} {
		rec := AppendFrame(nil, &Frame{Type: FrameRelay, Round: 1, From: 1, NBits: tc.nbits, Payload: tc.payload})
		_, err := ReadFrame(bytes.NewReader(rec))
		if tc.ok != (err == nil) || errors.Is(err, ErrCRC) {
			t.Errorf("NBits %d over %d bytes: err = %v, want ok=%v and no ErrCRC", tc.nbits, len(tc.payload), err, tc.ok)
		}
		replay := []byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 2}
		replay = binary.BigEndian.AppendUint32(replay, uint32(tc.nbits))
		replay = binary.BigEndian.AppendUint32(replay, uint32(len(tc.payload)))
		replay = append(replay, tc.payload...)
		if _, _, err := parseReplay(replay); tc.ok != (err == nil) {
			t.Errorf("replayed NBits %d over %d bytes: err = %v, want ok=%v", tc.nbits, len(tc.payload), err, tc.ok)
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	f := Frame{Type: FrameStep, Round: 3}
	rec := AppendFrame(nil, &f)
	for cut := 1; cut < len(rec); cut++ {
		_, err := ReadFrame(bytes.NewReader(rec[:cut]))
		if err == nil || errors.Is(err, ErrCRC) {
			t.Fatalf("truncation at %d/%d bytes: err = %v, want transport error", cut, len(rec), err)
		}
	}
}

// writeCounter pins the one-record-per-Write contract FaultConn relies on.
type writeCounter struct {
	writes int
	buf    bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func TestWriteFrameSingleWrite(t *testing.T) {
	var w writeCounter
	f := Frame{Type: FrameRelay, Round: 2, From: 0, To: 1, NBits: 16, Payload: []byte{7, 7}}
	if err := WriteFrame(&w, &f); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteFrame used %d Write calls, want 1", w.writes)
	}
	if _, err := ReadFrame(&w.buf); err != nil {
		t.Fatalf("reading back: %v", err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}
