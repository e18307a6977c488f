// Package dist is the rank runtime of the distributed shallow-water runs:
// a TCP message-passing substrate exchanging length-prefixed frames over
// persistent per-neighbor connections. Ranks are either separate OS
// processes (cmd/swrank, Launch) or goroutines of one process (RunLocal);
// both run the same rendezvous, links and frames over the network stack.
//
//   - frame.go      — the wire format: a fixed 18-byte header (magic,
//     version, type, sender, tag, payload length) followed by the payload.
//     Decoding is defensive: bad magic, unknown version, or an oversized
//     length field is a protocol error, never a panic or an unbounded read.
//   - comm.go       — Comm: one writer and one reader goroutine per peer
//     link, nonblocking PostSend/PostRecv plus a Wait that drains all
//     outstanding operations, deadline-bounded so a dead peer surfaces as
//     an error naming the culprit rank instead of a hang. Rank-0-rooted
//     collectives (AllreduceSum/Max, Barrier) ride the same links.
//   - rendezvous.go — Connect: rank 0 listens and announces, every other
//     rank dials with retry and backoff, rank 0 distributes the roster and
//     the partition owner map, then neighbor links are established
//     (higher rank dials lower).
//   - exchanger.go  — Exchanger: halo.ExchangeSpec bound to persistent
//     pack/unpack buffers with Post/Wait halves for the comm/compute
//     overlap (sw.Overlap) and a blocking Exchange for the baseline, plus
//     per-rank telemetry (bytes sent/received, wait-time histogram,
//     overlap-efficiency gauge).
//   - ranksolver.go — RankSolver: the rank-local solver with the halo
//     exchange wired into its step, plus gathers and the global mass.
//   - launcher.go   — Launch: spawn N local ranks of cmd/swrank, parse the
//     rank-0 announce line, supervise, and on any abnormal exit kill the
//     remaining ranks and report which rank failed.
//   - local.go      — RunLocal: N goroutine ranks over loopback in one
//     process, for tests, the conformance matrix and the examples.
package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire format constants. The magic doubles as a byte-order sanity check:
// every multi-byte field on the wire is little-endian.
const (
	frameMagic   uint32 = 0x53574446 // "SWDF"
	frameVersion uint8  = 1

	// headerSize is the fixed frame header length in bytes:
	// magic(4) version(1) type(1) sender(4) tag(4) length(4).
	headerSize = 18

	// MaxPayload bounds the payload length a decoder will accept. The
	// largest legitimate frame is a gathered global field on the biggest
	// supported mesh (level 9, ~2.6M cells, two float64 per entry); 64 MiB
	// covers it with headroom while keeping a garbage length field from
	// provoking a giant allocation.
	MaxPayload = 64 << 20
)

// frameType tags what a frame carries. Data frames (halo payloads, scalar
// collectives, gathers) are the steady state; hello and roster appear only
// during rendezvous.
type frameType uint8

const (
	frameHello  frameType = 1 // rank k -> rank 0 / peer: identity + listen addr
	frameRoster frameType = 2 // rank 0 -> rank k: addresses + partition owner map
	frameData   frameType = 3 // float64 payload, in-order per link, tag-checked
)

// header is the decoded fixed-size frame prefix.
type header struct {
	Type   frameType
	Sender uint32
	Tag    uint32
	Length uint32 // payload bytes following the header
}

// putHeader encodes h into b, which must have room for headerSize bytes.
func putHeader(b []byte, h header) {
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	b[4] = frameVersion
	b[5] = byte(h.Type)
	binary.LittleEndian.PutUint32(b[6:], h.Sender)
	binary.LittleEndian.PutUint32(b[10:], h.Tag)
	binary.LittleEndian.PutUint32(b[14:], h.Length)
}

// parseHeader decodes and validates a frame header. It rejects short input,
// bad magic, unknown versions, unknown frame types and oversized lengths —
// the full defensive surface the fuzz target exercises.
func parseHeader(b []byte) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("dist: short frame header: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != frameMagic {
		return h, fmt.Errorf("dist: bad frame magic %#08x", m)
	}
	if v := b[4]; v != frameVersion {
		return h, fmt.Errorf("dist: unsupported frame version %d", v)
	}
	h.Type = frameType(b[5])
	switch h.Type {
	case frameHello, frameRoster, frameData:
	default:
		return h, fmt.Errorf("dist: unknown frame type %d", b[5])
	}
	h.Sender = binary.LittleEndian.Uint32(b[6:])
	h.Tag = binary.LittleEndian.Uint32(b[10:])
	h.Length = binary.LittleEndian.Uint32(b[14:])
	if h.Length > MaxPayload {
		return h, fmt.Errorf("dist: frame payload %d exceeds limit %d", h.Length, MaxPayload)
	}
	return h, nil
}

// readHeader reads and validates exactly one frame header from r.
func readHeader(r io.Reader, scratch []byte) (header, error) {
	if _, err := io.ReadFull(r, scratch[:headerSize]); err != nil {
		return header{}, err
	}
	return parseHeader(scratch[:headerSize])
}

// writeFrame writes one complete frame (header + payload) with a single
// Write call, using scratch as the staging buffer (grown as needed) so the
// steady state allocates nothing. It returns the staging buffer for reuse
// and the total bytes written.
func writeFrame(w io.Writer, h header, payload []byte, scratch []byte) ([]byte, int, error) {
	n := headerSize + len(payload)
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	h.Length = uint32(len(payload))
	putHeader(scratch, h)
	copy(scratch[headerSize:], payload)
	_, err := w.Write(scratch)
	return scratch, n, err
}

// readFrame reads one complete frame, returning the (possibly regrown)
// payload scratch buffer sliced to the payload and the total bytes read.
func readFrame(r io.Reader, scratch []byte) (header, []byte, int, error) {
	var hdr [headerSize]byte
	h, err := readHeader(r, hdr[:])
	if err != nil {
		return h, scratch, 0, err
	}
	if cap(scratch) < int(h.Length) {
		scratch = make([]byte, h.Length)
	}
	scratch = scratch[:h.Length]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return h, scratch, 0, fmt.Errorf("dist: truncated frame payload: %w", err)
	}
	return h, scratch, headerSize + int(h.Length), nil
}

// Float payload helpers: data frames carry float64 slices little-endian.

func putFloats(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func getFloats(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
