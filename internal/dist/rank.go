package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"

	"diffuse/internal/hash128"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/wire"
)

// MaybeRankMain re-enters the current binary as a rank process when the
// environment says so, and never returns in that case. Every binary that
// launches a distributed runtime must call it first thing in main() (or
// TestMain) — the parent launches rank subprocesses by re-executing its
// own binary with EnvRank set, and this is the hook that diverts those
// children into the rank control loop instead of the program body.
func MaybeRankMain() {
	if os.Getenv(EnvRank) == "" {
		return
	}
	if err := runRank(); err != nil {
		fmt.Fprintf(os.Stderr, "diffuse dist rank %s: %v\n", os.Getenv(EnvRank), err)
		os.Exit(1)
	}
	os.Exit(0)
}

// wrapMesh, when set, wraps rank me's peer mesh before its drains use it.
// It is nil in the product; internal/dist's fault-injection tests set it
// in the test binary their rank subprocesses re-execute.
var wrapMesh func(tx *Transport, me int) legion.HaloTransport

// rankState is the decode side of the control stream: the store and
// kernel tables the parent fills lazily (StoreNew / Kernel messages
// precede first reference), and the rank's runtime.
type rankState struct {
	me int
	rt *legion.Runtime

	stores  map[ir.StoreID]*ir.Store
	kernels map[int64]*kir.Kernel
}

func runRank() (err error) {
	defer func() {
		// The legion execution path reports distributed failures (peer
		// death, deadline expiry, protocol violations) by panicking with a
		// wrapped error naming the rank and stream position; surface those
		// as the process's exit error so the parent's reaper can propagate
		// them.
		if p := recover(); p != nil {
			if pe, ok := p.(error); ok {
				err = pe
			} else {
				err = fmt.Errorf("panic: %v", p)
			}
		}
	}()

	me, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return fmt.Errorf("bad %s: %w", EnvRank, err)
	}
	ranks, err := strconv.Atoi(os.Getenv(EnvRanks))
	if err != nil || ranks < 1 || me < 0 || me >= ranks {
		return fmt.Errorf("bad %s/%s: %q of %q", EnvRank, EnvRanks, os.Getenv(EnvRank), os.Getenv(EnvRanks))
	}
	timeout, err := distTimeout()
	if err != nil {
		return err
	}

	parent, err := fileConn(os.NewFile(3, "control"))
	if err != nil {
		return fmt.Errorf("control stream: %w", err)
	}
	defer parent.Close()
	// An error below ends the process, which closes what it opened.
	conns := make([]net.Conn, ranks)
	for peer := range conns {
		if peer == me {
			continue
		}
		if conns[peer], err = fileConn(os.NewFile(peerFD(me, peer), "peer")); err != nil {
			return fmt.Errorf("rank %d link to rank %d: %w", me, peer, err)
		}
	}
	tx := newTransport(me, conns, timeout)
	defer tx.Close()

	var haloTx legion.HaloTransport = tx
	if wrapMesh != nil {
		haloTx = wrapMesh(tx, me)
	}

	rt := legion.New(nil)
	if os.Getenv(EnvCodegen) == "off" {
		rt.SetCodegen(legion.CodegenOff)
	}
	rt.SetDistributed(me, ranks, haloTx)

	rs := &rankState{
		me:      me,
		rt:      rt,
		stores:  map[ir.StoreID]*ir.Store{},
		kernels: map[int64]*kir.Kernel{},
	}
	return rs.controlLoop(parent)
}

func (rs *rankState) store(id ir.StoreID) (*ir.Store, error) {
	s, ok := rs.stores[id]
	if !ok {
		return nil, fmt.Errorf("rank %d: stream references unknown store %d", rs.me, id)
	}
	return s, nil
}

// kernel resolves a task's kernel reference to the interned kernel, whose
// structural hash (cached on the immutable decoded kernel) must match the
// one the producer encoded.
func (rs *rankState) kernel(ref int64, fp hash128.Sum) (*kir.Kernel, error) {
	k, ok := rs.kernels[ref]
	if !ok {
		return nil, fmt.Errorf("rank %d: stream references unknown kernel %d", rs.me, ref)
	}
	if got := k.FingerprintHash(); got != fp {
		return nil, fmt.Errorf("rank %d: kernel %d fingerprint mismatch (stream %x, interned %x)", rs.me, ref, fp, got)
	}
	return k, nil
}

// controlLoop runs the replicated control stream until shutdown: it reads
// a frame, decodes it and executes it before it reads the next, so the
// store and kernel tables change in stream order on the goroutine that
// executes. Reading no further ahead than that cannot stall the ranks:
// the parent writes each message to every rank before it writes the
// next, so a drain only waits on peer data from entries every rank has
// already been sent, and a rank that stops reading surfaces as the
// parent's write deadline, not a hang.
func (rs *rankState) controlLoop(parent net.Conn) error {
	for {
		tag, body, err := readFrame(parent)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("rank %d: parent closed the control stream before shutdown", rs.me)
			}
			return fmt.Errorf("rank %d: control stream: %w", rs.me, err)
		}
		if tag == msgShutdown {
			return nil
		}
		if err := rs.step(parent, tag, body); err != nil {
			return fmt.Errorf("rank %d: %w", rs.me, err)
		}
	}
}

// step decodes and executes one control message. Every rank executes
// every message (the drains inside host reads and writes are
// collective), but only rank 0 sends reply payloads; every rank
// acknowledges an explicit drain.
func (rs *rankState) step(parent net.Conn, tag uint64, body []byte) error {
	reply := func(payload []byte) error {
		if rs.me != 0 {
			return nil
		}
		if err := writeFrame(parent, msgReply, payload); err != nil {
			return fmt.Errorf("reply: %w", err)
		}
		return nil
	}
	switch tag {
	case msgStoreNew:
		// The store must exist before any later message references it.
		s, err := decodeStoreNew(body)
		if err != nil {
			return err
		}
		rs.stores[s.ID()] = s
	case msgKernel:
		r := wire.NewReader(body)
		ref := r.I64()
		if r.Err() != nil {
			return fmt.Errorf("kernel message: %w", r.Err())
		}
		k, err := kir.DecodeKernel(r.Bytes(r.Len()))
		if err != nil {
			return fmt.Errorf("kernel %d: %w", ref, err)
		}
		rs.kernels[ref] = k
	case msgTask:
		t, err := ir.DecodeTask(body, rs.store, rs.kernel)
		if err != nil {
			return err
		}
		rs.rt.Execute(t)
	case msgWrite:
		id, data, err := decodeStoreData(body)
		if err != nil {
			return err
		}
		s, err := rs.store(id)
		if err != nil {
			return err
		}
		if data.Len() != s.Size() {
			return fmt.Errorf("dist: write of %d elements to store %d of %d", data.Len(), id, s.Size())
		}
		rs.rt.WriteBuffer(s, data)
	case msgFree:
		// Control replication guarantees no later message references a
		// freed store.
		id, err := readIDBody(body)
		if err != nil {
			return err
		}
		delete(rs.stores, ir.StoreID(id))
		rs.rt.FreeStore(ir.StoreID(id))
	case msgDrain:
		rs.rt.DrainShardGroup()
		if err := writeFrame(parent, msgDrainAck, nil); err != nil {
			return fmt.Errorf("drain acknowledgement: %w", err)
		}
	case msgRead:
		id, err := readIDBody(body)
		if err != nil {
			return err
		}
		s, err := rs.store(ir.StoreID(id))
		if err != nil {
			return err
		}
		return reply(encodeStoreData(s.ID(), rs.rt.ReadBuffer(s)))
	case msgReadAt:
		id, off, err := decodeReadAt(body)
		if err != nil {
			return err
		}
		s, err := rs.store(id)
		if err != nil {
			return err
		}
		v, ok := rs.rt.ReadAt(s, off)
		var w wire.Writer
		w.Bool(ok)
		w.F64(v)
		return reply(w.B)
	default:
		return fmt.Errorf("unknown control message %d", tag)
	}
	return nil
}
