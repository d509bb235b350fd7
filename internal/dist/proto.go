// Package dist is the multi-process distributed runtime: a parent process
// launches one rank subprocess per shard on the same host (the same
// binary, re-entered through MaybeRankMain) and control-replicates its
// post-fusion task stream to every rank over unix-domain sockets. Each rank decodes the
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
//     legion.Backend that forwards the parent's execution surface;
//   - rank.go: the rank process entry point and its control loop;
//   - transport.go: the rendezvous sockets, the peer mesh and its tagged
//     mailboxes — the legion.HaloTransport the distributed drain moves
//     bytes through.
package dist

import (
	"fmt"
	"io"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/wire"
)

// Environment variables of the rank re-entry protocol. The parent sets
// the first three; MaybeRankMain triggers on DIFFUSE_RANK.
const (
	// EnvRank is this process's rank id (unset in the parent).
	EnvRank = "DIFFUSE_RANK"
	// EnvRanks is the total rank count.
	EnvRanks = "DIFFUSE_RANKS"
	// EnvDir is the launch's private rendezvous directory. Every socket
	// of the launch is a file in it: the parent's control socket and one
	// peer listen socket per rank, named by rank number.
	EnvDir = "DIFFUSE_DIST_DIR"
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
)

// Control-stream message types (the tag field of control frames). The
// parent broadcasts every message to every rank in issue order — control
// replication needs each rank to observe the identical sequence. Only
// rank 0 answers read requests, on the reply tag; every rank acknowledges
// a drain, so the parent's Drain is a barrier.
const (
	msgHello    uint64 = iota + 1 // rank → parent/peer: 8-byte rank id
	msgStoreNew                   // store id, dtype, name, shape
	msgKernel                     // kernel-table ref, kir wire bytes
	msgTask                       // ir wire bytes (references store/kernel tables)
	msgWrite                      // store data: store id, dtype, native-width elements
	msgFree                       // store id
	msgDrain                      // (empty) force the shard group to drain; every rank acks
	msgRead                       // store id; rank 0 replies store data
	msgReadAt                     // store id, flat offset; rank 0 replies ok + value
	msgShutdown                   // (empty) clean rank exit
	msgReply                      // rank 0 → parent: read payload
	msgDrainAck                   // every rank → parent: (empty) its msgDrain completed
)

// maxFrame bounds a frame payload (1 GiB): a corrupt length header fails
// fast instead of attempting an absurd allocation.
const maxFrame = 1 << 30

// appendHeader appends a frame header — 8-byte tag, 4-byte payload
// length, little-endian — refusing a payload over maxFrame.
func appendHeader(buf []byte, tag uint64, payload []byte) ([]byte, error) {
	if len(payload) > maxFrame {
		return buf, fmt.Errorf("dist: frame payload %d bytes exceeds limit", len(payload))
	}
	w := wire.Writer{B: buf}
	w.U64(tag)
	w.U32(uint32(len(payload)))
	return w.B, nil
}

// writeFrame sends one framed message: header, then payload.
func writeFrame(w io.Writer, tag uint64, payload []byte) error {
	var hdr [12]byte
	h, err := appendHeader(hdr[:0], tag, payload)
	if err != nil {
		return err
	}
	if _, err := w.Write(h); err != nil {
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
	buf, err := appendHeader(buf, tag, payload)
	if err != nil {
		return buf, err
	}
	return append(buf, payload...), nil
}

// readFrame receives one framed message.
func readFrame(r io.Reader) (tag uint64, payload []byte, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	h := wire.NewReader(hdr[:])
	tag = h.U64()
	n := h.U32()
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

// Body codecs of the control messages, written and read with internal/wire
// like everything else that crosses a process boundary. These are
// deliberately tiny — everything interesting (tasks, kernels) travels in
// the versioned ir/kir wire formats. Control bodies carry no version:
// parent and ranks are the same binary by construction (the parent
// re-executes itself). Every decoder rejects a body with bytes left over.

// idBody is the body of the one-integer messages (hello's rank id, the
// store id of msgFree and msgRead); readIDBody decodes it.
func idBody(v int64) []byte {
	var w wire.Writer
	w.I64(v)
	return w.B
}

func readIDBody(b []byte) (int64, error) {
	r := wire.NewReader(b)
	v := r.I64()
	return v, r.Done()
}

func encodeStoreNew(s *ir.Store) []byte {
	var w wire.Writer
	w.I64(int64(s.ID()))
	w.U8(uint8(s.DType()))
	w.Str(s.Name())
	w.Ints(s.Shape())
	return w.B
}

func decodeStoreNew(b []byte) (*ir.Store, error) {
	r := wire.NewReader(b)
	id := ir.StoreID(r.I64())
	dt := ir.DType(r.U8())
	name := r.Str()
	shape := r.Ints()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dist: StoreNew: %w", err)
	}
	if !dt.Valid() {
		return nil, fmt.Errorf("dist: StoreNew %d (%s): unknown dtype %d", id, name, uint8(dt))
	}
	for d, e := range shape {
		if e < 0 {
			return nil, fmt.Errorf("dist: StoreNew %d (%s): negative extent %d on axis %d", id, name, e, d)
		}
	}
	return ir.RestoreStore(id, name, shape, dt), nil
}

// encodeStoreData is the one store-data body — a host write going out and
// a host read coming back: store id, dtype byte, then every element at
// that dtype's own width (kir.Buffer.AppendWire).
func encodeStoreData(id ir.StoreID, data kir.Buffer) []byte {
	w := wire.Writer{B: make([]byte, 0, 9+data.Len()*data.DType().Size())}
	w.I64(int64(id))
	w.U8(uint8(data.DType()))
	return data.AppendWire(w.B, 0, data.Len())
}

func decodeStoreData(b []byte) (ir.StoreID, kir.Buffer, error) {
	r := wire.NewReader(b)
	id := ir.StoreID(r.I64())
	dt := kir.DType(r.U8())
	if err := r.Err(); err != nil {
		return 0, kir.Buffer{}, fmt.Errorf("dist: store data: %w", err)
	}
	if !dt.Valid() {
		return 0, kir.Buffer{}, fmt.Errorf("dist: store %d data: unknown dtype %d", id, uint8(dt))
	}
	n := r.Len() / dt.Size()
	data := kir.AllocBuffer(dt, n)
	if err := data.DecodeWire(0, n, r.Bytes(r.Len())); err != nil {
		return 0, kir.Buffer{}, fmt.Errorf("dist: store %d data: %w", id, err)
	}
	return id, data, nil
}

func encodeReadAt(id ir.StoreID, off int) []byte {
	var w wire.Writer
	w.I64(int64(id))
	w.I64(int64(off))
	return w.B
}

func decodeReadAt(b []byte) (ir.StoreID, int, error) {
	r := wire.NewReader(b)
	id, off := ir.StoreID(r.I64()), int(r.I64())
	if err := r.Done(); err != nil {
		return 0, 0, fmt.Errorf("dist: ReadAt: %w", err)
	}
	return id, off, nil
}
