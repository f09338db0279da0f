package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"dyndiam/internal/dynet"
)

// Crash-rejoin replay. The coordinator logs every finalized round (down
// mask + per-node post-fault inboxes); when a node process reconnects —
// live after a connection reset, or a fresh process after SIGKILL — the
// gap between the node's last completed round and the coordinator's
// finalized round is shipped as one REPLAY frame. Replayed inboxes are
// post-fault copies (faults were adjudicated when the round ran), so a
// rejoining node reconstructs the machine state the engine would have,
// byte for byte.
//
// Payload layout (big endian):
//
//	u32  first replayed round
//	u32  round count
//	per round:
//	  u8   down flag (1 = the node was crashed; nothing to apply)
//	  u16  message count
//	  per message: u32 from, u32 nbits, u32 payload length, payload

// replayRound is one decoded catch-up round for one node.
type replayRound struct {
	down  bool
	inbox []dynet.Message
}

// encodeReplay serializes rounds from..to (inclusive) of node id's log.
func (co *coordinator) encodeReplay(id, from, to int) []byte {
	dst := binary.BigEndian.AppendUint32(nil, uint32(from))
	dst = binary.BigEndian.AppendUint32(dst, uint32(to-from+1))
	for q := from; q <= to; q++ {
		down := co.logDown[q-1]
		if down != nil && down[id] {
			dst = append(dst, 1)
			dst = binary.BigEndian.AppendUint16(dst, 0)
			continue
		}
		inbox := co.logInbox[q-1][id]
		dst = append(dst, 0)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(inbox)))
		for _, m := range inbox {
			dst = binary.BigEndian.AppendUint32(dst, uint32(m.From))
			dst = binary.BigEndian.AppendUint32(dst, uint32(m.NBits))
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
			dst = append(dst, m.Payload...)
		}
	}
	return dst
}

// parseReplay decodes a REPLAY payload into (first round, rounds).
func parseReplay(payload []byte) (int, []replayRound, error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("wire: replay payload truncated at %d bytes", len(payload))
	}
	from := int(binary.BigEndian.Uint32(payload[:4]))
	count := int(binary.BigEndian.Uint32(payload[4:8]))
	p := payload[8:]
	rounds := make([]replayRound, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 3 {
			return 0, nil, fmt.Errorf("wire: replay round %d truncated", from+i)
		}
		rr := replayRound{down: p[0] == 1}
		m := int(binary.BigEndian.Uint16(p[1:3]))
		p = p[3:]
		for j := 0; j < m; j++ {
			if len(p) < 12 {
				return 0, nil, fmt.Errorf("wire: replay round %d message %d truncated", from+i, j)
			}
			sender := int(int32(binary.BigEndian.Uint32(p[:4])))
			nbits := int(int32(binary.BigEndian.Uint32(p[4:8])))
			plen := int(binary.BigEndian.Uint32(p[8:12]))
			p = p[12:]
			if len(p) < plen {
				return 0, nil, fmt.Errorf("wire: replay round %d message %d payload truncated", from+i, j)
			}
			if err := checkNBits(nbits, plen); err != nil {
				return 0, nil, fmt.Errorf("wire: replay round %d message %d: %w", from+i, j, err)
			}
			rr.inbox = append(rr.inbox, dynet.Message{
				From:    sender,
				NBits:   nbits,
				Payload: append([]byte(nil), p[:plen]...),
			})
			p = p[plen:]
		}
		rounds = append(rounds, rr)
	}
	return from, rounds, nil
}

// nodeStats is the per-node transport counter report carried by a STATS
// frame and folded into the coordinator's transport registry.
type nodeStats struct {
	// Redials counts re-established coordinator connections.
	Redials int64 `json:"redials"`
	// CRCRejects counts CRC-failed relay frames adjudicated against the
	// node's fault plan (accepted as injected corruption or discarded as
	// line noise).
	CRCRejects int64 `json:"crc_rejects"`
	// ReplayedRounds counts rounds reconstructed from REPLAY frames.
	ReplayedRounds int64 `json:"replayed_rounds"`
}

func encodeNodeStats(st nodeStats) []byte {
	b, _ := json.Marshal(st)
	return b
}

func parseNodeStats(payload []byte) (nodeStats, error) {
	var st nodeStats
	if err := json.Unmarshal(payload, &st); err != nil {
		return nodeStats{}, fmt.Errorf("wire: invalid node stats: %w", err)
	}
	return st, nil
}

// frameOutput extracts the int64 output carried by READY/STATUS frames.
func frameOutput(f Frame) int64 {
	if len(f.Payload) < 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(f.Payload[:8]))
}

// appendOutput serializes an output value for READY/STATUS frames.
func appendOutput(out int64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(out))
}
