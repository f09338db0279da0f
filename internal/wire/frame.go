package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout on the wire (big endian):
//
//	u32  length of everything after this field (header + payload + crc)
//	u8   type
//	u8   flags
//	i32  round
//	i32  from
//	i32  to
//	i32  nbits
//	...  payload
//	u32  CRC-32 (IEEE) over type..payload
//
// The length prefix makes frame boundaries recoverable from any byte
// stream position; the trailing CRC makes payload corruption — including
// the single-bit flips the fault layer injects — detectable at the
// receiver, which then adjudicates the damage against its own fault plan
// (see node.go).

// FrameType discriminates wire frames.
type FrameType uint8

// Frame types. Coordinator→node: Welcome, Replay, Step, Relay, Deliver,
// Finish, Abort. Node→coordinator: Hello, Ready, Act, Status, Stats.
const (
	// FrameHello opens a connection: From = node id, Round = the node's
	// last completed round (0 for a fresh process).
	FrameHello FrameType = iota + 1
	// FrameWelcome carries the serialized RunSpec.
	FrameWelcome
	// FrameReplay carries the node's per-round catch-up log (see
	// appendReplay): Round = last replayed round.
	FrameReplay
	// FrameStep tells the node to commit round Round.
	FrameStep
	// FrameAct is the node's commitment: FlagSend + NBits + payload when
	// sending, bare otherwise.
	FrameAct
	// FrameRelay delivers one sender's message into a receiver's inbox:
	// From = sender, To = receiver. Without FlagNoFault it is subject to
	// socket-layer fault injection.
	FrameRelay
	// FrameDeliver closes the round's inbox: the node delivers (if it
	// committed Receive) and answers with FrameStatus.
	FrameDeliver
	// FrameStatus reports (output, decided) after Round.
	FrameStatus
	// FrameFinish ends the run; the node answers with FrameStats and
	// exits.
	FrameFinish
	// FrameStats carries the node's transport counters as JSON.
	FrameStats
	// FrameAbort carries a fatal error text; the node exits with it.
	FrameAbort
	// FrameReady completes a (re)join handshake: the node has processed
	// Welcome/Replay; Round = its last completed round, payload/flags =
	// its current (output, decided).
	FrameReady
)

// Frame flags.
const (
	// FlagSend marks an Act frame whose node committed Send.
	FlagSend = 1 << iota
	// FlagDecided marks Status/Ready/Hello frames of a decided node.
	FlagDecided
	// FlagNoFault exempts a frame from socket-layer fault injection:
	// replayed and redelivered frames carry already-adjudicated faults
	// and must not be faulted twice.
	FlagNoFault
)

// Frame is one parsed wire frame.
type Frame struct {
	Type    FrameType
	Flags   uint8
	Round   int32
	From    int32
	To      int32
	NBits   int32
	Payload []byte
}

const (
	frameHeaderLen  = 18      // type..nbits, after the length prefix
	maxFramePayload = 1 << 24 // hard cap; real payloads are CONGEST-sized
)

// ErrCRC reports a frame whose trailing checksum does not match its
// contents. ReadFrame returns it alongside the fully parsed frame so the
// caller can adjudicate the corruption (injected model fault vs line
// noise) instead of losing the record.
var ErrCRC = errors.New("wire: frame CRC mismatch")

// AppendFrame serializes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	total := frameHeaderLen + len(f.Payload) + 4
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	body := len(dst)
	dst = append(dst, byte(f.Type), f.Flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Round))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.To))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.NBits))
	dst = append(dst, f.Payload...)
	sum := crc32.ChecksumIEEE(dst[body:])
	return binary.BigEndian.AppendUint32(dst, sum)
}

// WriteFrame serializes f and writes it in a single Write call, so a
// frame-boundary-aware wrapper (FaultConn) sees whole records.
func WriteFrame(w io.Writer, f *Frame) error {
	buf := AppendFrame(nil, f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame. On a checksum mismatch it returns the
// parsed frame together with ErrCRC; every other error is a transport
// failure, including a bit length the payload cannot hold (checked
// before the checksum, so no frame whose NBits overruns its payload ever
// reaches a protocol decoder). Payload bytes are freshly allocated per
// frame and safe to retain.
func ReadFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < frameHeaderLen+4 || total > frameHeaderLen+maxFramePayload+4 {
		return Frame{}, fmt.Errorf("wire: frame length %d outside [%d, %d]", total, frameHeaderLen+4, frameHeaderLen+maxFramePayload+4)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, err
	}
	f, sum := parseFrameBody(body[:total-4])
	if err := checkNBits(int(f.NBits), len(f.Payload)); err != nil {
		return Frame{}, err
	}
	if sum != binary.BigEndian.Uint32(body[total-4:]) {
		return f, ErrCRC
	}
	return f, nil
}

// parseFrameBody decodes header+payload bytes (no length prefix, no
// trailing CRC) and returns the frame plus the checksum of the bytes.
func parseFrameBody(body []byte) (Frame, uint32) {
	f := Frame{
		Type:  FrameType(body[0]),
		Flags: body[1],
		Round: int32(binary.BigEndian.Uint32(body[2:6])),
		From:  int32(binary.BigEndian.Uint32(body[6:10])),
		To:    int32(binary.BigEndian.Uint32(body[10:14])),
		NBits: int32(binary.BigEndian.Uint32(body[14:18])),
	}
	if len(body) > frameHeaderLen {
		f.Payload = body[frameHeaderLen:]
	}
	return f, crc32.ChecksumIEEE(body)
}

// checkNBits rejects a message bit length that is negative or exceeds the
// plen payload bytes carrying it.
func checkNBits(nbits, plen int) error {
	if nbits < 0 || nbits > 8*plen {
		return fmt.Errorf("wire: %d message bits outside a %d-byte payload", nbits, plen)
	}
	return nil
}

// String renders a frame compactly for errors and debugging.
func (f Frame) String() string {
	return fmt.Sprintf("frame{type=%d flags=%#x r=%d from=%d to=%d nbits=%d |payload|=%d}",
		f.Type, f.Flags, f.Round, f.From, f.To, f.NBits, len(f.Payload))
}
