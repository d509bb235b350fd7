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
	me    int
	ranks int
	rt    *legion.Runtime

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
	dir := os.Getenv(EnvDir)
	if dir == "" {
		return fmt.Errorf("%s not set", EnvDir)
	}
	timeout, err := distTimeout()
	if err != nil {
		return err
	}

	parent, err := dialRetry(parentSocket(dir), timeout)
	if err != nil {
		return fmt.Errorf("connect to parent: %w", err)
	}
	defer parent.Close()
	if err := writeFrame(parent, msgHello, idBody(int64(me))); err != nil {
		return fmt.Errorf("hello to parent: %w", err)
	}

	tx, err := connectMesh(dir, me, ranks, timeout)
	if err != nil {
		return err
	}
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
		ranks:   ranks,
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

// ctlOp is one decoded control message, ready to execute. Decode happens
// on a dedicated goroutine so the (often long) group drains a task or
// read triggers overlap with reading and decoding the messages behind it
// in the stream; the store/kernel tables are only ever touched by the
// decoder, in stream order, so a decoded *ir.Task is immutable by the
// time the executor sees it.
type ctlOp struct {
	tag  uint64
	task *ir.Task   // msgTask
	st   *ir.Store  // msgWrite, msgRead, msgReadAt (resolved at decode time)
	id   ir.StoreID // msgFree
	off  int        // msgReadAt
	data kir.Buffer // msgWrite
	err  error      // decode or stream failure; terminal
}

// decodeLoop reads and decodes the control stream ahead of execution,
// feeding decoded operations into ops. The channel's bound is the
// decode-ahead window: a rank stuck in a long drain backpressures the
// decoder instead of buffering the stream without limit. quit tears the
// loop down when the executor returns first (shutdown or error).
func (rs *rankState) decodeLoop(parent net.Conn, ops chan<- ctlOp, quit <-chan struct{}) {
	emit := func(op ctlOp) bool {
		select {
		case ops <- op:
			return op.err == nil && op.tag != msgShutdown
		case <-quit:
			return false
		}
	}
	for {
		tag, body, err := readFrame(parent)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("rank %d: parent closed the control stream before shutdown", rs.me)
			} else {
				err = fmt.Errorf("rank %d: control stream: %w", rs.me, err)
			}
			emit(ctlOp{err: err})
			return
		}
		op := ctlOp{tag: tag}
		switch tag {
		case msgStoreNew:
			// Table mutations are decode-side only: the store must exist
			// before any later message in the stream references it, and the
			// executor never looks stores up by id.
			s, err := decodeStoreNew(body)
			if err != nil {
				op.err = err
				break
			}
			rs.stores[s.ID()] = s
			continue // nothing to execute
		case msgKernel:
			r := wire.NewReader(body)
			ref := r.I64()
			if r.Err() != nil {
				op.err = fmt.Errorf("kernel message: %w", r.Err())
				break
			}
			k, err := kir.DecodeKernel(r.Bytes(r.Len()))
			if err != nil {
				op.err = fmt.Errorf("kernel %d: %w", ref, err)
				break
			}
			rs.kernels[ref] = k
			continue
		case msgTask:
			op.task, op.err = ir.DecodeTask(body, rs.store, rs.kernel)
		case msgWrite:
			var id ir.StoreID
			id, op.data, op.err = decodeStoreData(body)
			if op.err == nil {
				op.st, op.err = rs.store(id)
			}
			if op.err == nil && op.data.Len() != op.st.Size() {
				op.err = fmt.Errorf("dist: write of %d elements to store %d of %d", op.data.Len(), id, op.st.Size())
			}
		case msgFree:
			var id int64
			id, op.err = readIDBody(body)
			op.id = ir.StoreID(id)
			// The free is safe to apply to the decode table immediately:
			// control replication guarantees no later message references a
			// freed store. The runtime-side free happens at execution time.
			delete(rs.stores, op.id)
		case msgDrain:
		case msgRead:
			var id int64
			if id, op.err = readIDBody(body); op.err == nil {
				op.st, op.err = rs.store(ir.StoreID(id))
			}
		case msgReadAt:
			var id ir.StoreID
			if id, op.off, op.err = decodeReadAt(body); op.err == nil {
				op.st, op.err = rs.store(id)
			}
		case msgShutdown:
		default:
			op.err = fmt.Errorf("unknown control message %d", tag)
		}
		if op.err != nil {
			op.err = fmt.Errorf("rank %d: %w", rs.me, op.err)
		}
		if !emit(op) {
			return
		}
	}
}

// controlLoop processes the replicated control stream until shutdown,
// decoding ahead of execution on a separate goroutine. Every rank
// executes every message (the drains inside host reads and writes are
// collective), but only rank 0 sends reply payloads; every rank
// acknowledges an explicit drain.
func (rs *rankState) controlLoop(parent net.Conn) error {
	reply := func(payload []byte) error {
		if rs.me != 0 {
			return nil
		}
		return writeFrame(parent, msgReply, payload)
	}

	ops := make(chan ctlOp, 128)
	quit := make(chan struct{})
	defer close(quit)
	go rs.decodeLoop(parent, ops, quit)

	for op := range ops {
		if op.err != nil {
			return op.err
		}
		switch op.tag {
		case msgTask:
			rs.rt.Execute(op.task)
		case msgWrite:
			rs.rt.WriteBuffer(op.st, op.data)
		case msgFree:
			rs.rt.FreeStore(op.id)
		case msgDrain:
			rs.rt.DrainShardGroup()
			if err := writeFrame(parent, msgDrainAck, nil); err != nil {
				return fmt.Errorf("rank %d: drain acknowledgement: %w", rs.me, err)
			}
		case msgRead:
			if err := reply(encodeStoreData(op.st.ID(), rs.rt.ReadBuffer(op.st))); err != nil {
				return fmt.Errorf("rank %d: reply: %w", rs.me, err)
			}
		case msgReadAt:
			v, ok := rs.rt.ReadAt(op.st, op.off)
			var w wire.Writer
			w.Bool(ok)
			w.F64(v)
			if err := reply(w.B); err != nil {
				return fmt.Errorf("rank %d: reply: %w", rs.me, err)
			}
		case msgShutdown:
			return nil
		}
	}
	return fmt.Errorf("rank %d: control stream ended unexpectedly", rs.me)
}
