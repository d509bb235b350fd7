// Package dist is the multi-process distributed runtime: a parent process
// launches one rank subprocess per shard (the same binary, re-entered
// through MaybeRankMain) and control-replicates its post-fusion task
// stream to every rank over unix-domain sockets. Each rank decodes the
// identical stream, re-derives the identical sharded schedule through the
// unchanged legion layer, executes the shard it owns, and exchanges
// boundary spans with its peers (legion/dist.go). The parent owns no
// array data: host reads gather from rank 0, host writes broadcast.
//
// The package has four parts:
//
//   - proto.go (this file): the framed message protocol shared by the
//     parent control stream and the rank-to-rank peer links;
//   - parent.go: process launch, child reaping, and the
//     legion.RemoteBackend that forwards the parent's execution surface;
//   - rank.go: the rank process entry point and its control loop;
//   - transport.go: the peer mesh and its tagged mailboxes — the
//     legion.HaloTransport the distributed drain moves bytes through.
package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"diffuse/internal/ir"
)

// Environment variables of the rank re-entry protocol. The parent sets
// all three; MaybeRankMain triggers on DIFFUSE_RANK.
const (
	// EnvRank is this process's rank id (unset in the parent).
	EnvRank = "DIFFUSE_RANK"
	// EnvRanks is the total rank count.
	EnvRanks = "DIFFUSE_RANKS"
	// EnvPeers is the parent-assigned rendezvous address set: the
	// parent's control address first, then one peer listen address per
	// rank, comma-separated (AddrSet.Render). For unix the addresses are
	// socket paths in a private directory; for tcp they are host:port
	// endpoints.
	EnvPeers = "DIFFUSE_PEERS"
	// EnvTransport selects the dial/listen transport ("unix", the
	// default, or "tcp"). The parent sets it explicitly on every rank so
	// the whole launch agrees; see Provider.
	EnvTransport = "DIFFUSE_DIST_TRANSPORT"
	// EnvBind is the host the tcp transport binds and dials (default
	// 127.0.0.1). Setting it to a routable interface lets ranks span
	// machines.
	EnvBind = "DIFFUSE_DIST_BIND"
	// EnvFaults is a fault-injection schedule (faultx.ParseSchedule
	// syntax) each rank wraps around its peer transport — the scripted
	// chaos harness of the fault-injection tests. Unset means no faults.
	EnvFaults = "DIFFUSE_DIST_FAULTS"
	// EnvTimeout optionally overrides the transport receive deadline
	// (a Go duration string, e.g. "2s"; default 60s) — the bound after
	// which a missing peer message surfaces as an error instead of a
	// hang.
	EnvTimeout = "DIFFUSE_DIST_TIMEOUT"
	// EnvCodegen carries the parent's kernel-backend selection to the
	// ranks ("off" disables the codegen tier; anything else, including
	// unset, leaves the default on). Ranks must agree with the parent or
	// a bit-identity comparison against the in-process oracle would mix
	// backends.
	EnvCodegen = "DIFFUSE_CODEGEN"
	// EnvFeedback carries the parent's feedback-directed-scheduling
	// selection to the ranks ("off" disables online cost calibration;
	// anything else leaves the default on). Results are bit-identical
	// either way — this only pins schedule shape for deterministic runs.
	EnvFeedback = "DIFFUSE_FEEDBACK"
)

// Control-stream message types (the tag field of control frames). The
// parent broadcasts every message to every rank in issue order — control
// replication needs each rank to observe the identical sequence. Only
// rank 0 answers read requests, on the reply tag; every rank acknowledges
// a drain, so the parent's Drain is a barrier.
const (
	msgHello      uint64 = iota + 1 // rank → parent/peer: 8-byte rank id
	msgStoreNew                     // store id, dtype, name, shape
	msgKernel                       // kernel-table ref, kir wire bytes
	msgTask                         // ir wire bytes (references store/kernel tables)
	msgWriteAll                     // store id, float64 bit patterns
	msgWriteAll32                   // store id, float32 bit patterns
	msgFree                         // store id
	msgDrain                        // (empty) force the shard group to drain; every rank acks
	msgReadAll                      // store id; rank 0 replies float64 bits
	msgReadAll32                    // store id; rank 0 replies float32 bits
	msgReadAt                       // store id, flat offset; rank 0 replies ok + value
	msgShutdown                     // (empty) clean rank exit
	msgReply                        // rank 0 → parent: read payload
	msgDrainAck                     // every rank → parent: (empty) its msgDrain completed
)

// maxFrame bounds a frame payload (1 GiB): a corrupt length header fails
// fast instead of attempting an absurd allocation.
const maxFrame = 1 << 30

// writeFrame sends one framed message: 8-byte tag, 4-byte payload length,
// payload, all little-endian.
func writeFrame(w io.Writer, tag uint64, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("dist: frame payload %d bytes exceeds limit", len(payload))
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:], tag)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// appendFrame appends one framed message (header plus payload) to buf and
// returns the extended slice — the buffer-reusing variant of writeFrame
// for hot send paths: the caller keeps the returned slice and hands the
// whole frame to one conn.Write, so a steady-state send costs zero
// allocations and one syscall instead of two.
func appendFrame(buf []byte, tag uint64, payload []byte) ([]byte, error) {
	if len(payload) > maxFrame {
		return buf, fmt.Errorf("dist: frame payload %d bytes exceeds limit", len(payload))
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:], tag)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// readFrame receives one framed message.
func readFrame(r io.Reader) (tag uint64, payload []byte, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	tag = binary.LittleEndian.Uint64(hdr[0:])
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame payload %d bytes exceeds limit", n)
	}
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	return tag, payload, nil
}

// Body codecs of the control messages. These are deliberately tiny —
// everything interesting (tasks, kernels) travels in the versioned ir/kir
// wire formats; control bodies are fixed little-endian layouts.

func appendI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func readI64(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("dist: control body truncated (need 8 bytes, have %d)", len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func encodeStoreNew(s *ir.Store) []byte {
	b := appendI64(nil, int64(s.ID()))
	b = append(b, byte(s.DType()))
	b = appendI64(b, int64(len(s.Name())))
	b = append(b, s.Name()...)
	b = appendI64(b, int64(s.Rank()))
	for _, e := range s.Shape() {
		b = appendI64(b, int64(e))
	}
	return b
}

func decodeStoreNew(b []byte) (*ir.Store, error) {
	id, b, err := readI64(b)
	if err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("dist: StoreNew body truncated")
	}
	dt := ir.DType(b[0])
	b = b[1:]
	nameLen, b, err := readI64(b)
	if err != nil {
		return nil, err
	}
	if nameLen < 0 || int64(len(b)) < nameLen {
		return nil, fmt.Errorf("dist: StoreNew name length %d out of range", nameLen)
	}
	name := string(b[:nameLen])
	b = b[nameLen:]
	rank, b, err := readI64(b)
	if err != nil {
		return nil, err
	}
	if rank < 0 || int64(len(b)) != rank*8 {
		return nil, fmt.Errorf("dist: StoreNew shape rank %d does not match body", rank)
	}
	shape := make([]int, rank)
	for i := range shape {
		var v int64
		v, b, _ = readI64(b)
		shape[i] = int(v)
	}
	return ir.RestoreStore(ir.StoreID(id), name, shape, dt), nil
}

func encodeF64s(id ir.StoreID, data []float64) []byte {
	b := appendI64(nil, int64(id))
	for _, v := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func decodeF64s(b []byte) (ir.StoreID, []float64, error) {
	id, b, err := readI64(b)
	if err != nil {
		return 0, nil, err
	}
	if len(b)%8 != 0 {
		return 0, nil, fmt.Errorf("dist: float64 payload length %d not a multiple of 8", len(b))
	}
	data := make([]float64, len(b)/8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return ir.StoreID(id), data, nil
}

func encodeF32s(id ir.StoreID, data []float32) []byte {
	b := appendI64(nil, int64(id))
	for _, v := range data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

func decodeF32s(b []byte) (ir.StoreID, []float32, error) {
	id, b, err := readI64(b)
	if err != nil {
		return 0, nil, err
	}
	if len(b)%4 != 0 {
		return 0, nil, fmt.Errorf("dist: float32 payload length %d not a multiple of 4", len(b))
	}
	data := make([]float32, len(b)/4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return ir.StoreID(id), data, nil
}

func f64sToBits(data []float64) []byte {
	b := make([]byte, 0, len(data)*8)
	for _, v := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func bitsToF64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("dist: float64 payload length %d not a multiple of 8", len(b))
	}
	data := make([]float64, len(b)/8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return data, nil
}

func f32sToBits(data []float32) []byte {
	b := make([]byte, 0, len(data)*4)
	for _, v := range data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

func bitsToF32s(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("dist: float32 payload length %d not a multiple of 4", len(b))
	}
	data := make([]float32, len(b)/4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return data, nil
}
