package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"diffuse/internal/hash128"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/wire"
)

// Parent is the parent-side handle of a distributed runtime: the rank
// subprocesses, their control connections, and the lazily-filled store
// and kernel tables of the wire protocol. It implements
// legion.Backend — core.New passes it to legion.New, and the parent's
// runtime forwards its whole execution surface here.
//
// All backend methods execute under the legion runtime's execution lock,
// so the tables need no locking of their own; only the child-failure
// state is shared with the reaper goroutines.
type Parent struct {
	cmds    []*exec.Cmd
	outputs []*tailBuffer
	conns   []net.Conn
	timeout time.Duration

	sentStores map[ir.StoreID]bool
	// kernelRefs is the kernel table, keyed by structure
	// (kir.Kernel.FingerprintHash): an unfused stream mints a fresh kernel
	// object per operation, and each structure crosses the wire once.
	kernelRefs map[hash128.Sum]int64
	nextKernel int64
	wbuf       []byte // reusable broadcast frame buffer (execMu-serialized)

	mu        sync.Mutex
	closed    bool
	childErrs []error // per-rank unexpected-exit diagnoses
	reaped    sync.WaitGroup
}

// tailBuffer keeps the last `limit` bytes written — enough of a dead
// child's output to make the propagated error actionable without
// unbounded buffering.
type tailBuffer struct {
	mu    sync.Mutex
	buf   []byte
	limit int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.limit {
		t.buf = t.buf[len(t.buf)-t.limit:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// Launch starts a distributed runtime of the given width on this host.
// It makes every connection of the launch before it starts a rank: one
// unix socket pair per rank for control and one per two ranks for peer
// traffic. It then re-executes the current binary once per rank
// (MaybeRankMain diverts the children into the rank control loop), each
// rank inheriting its ends (see peerFD), and starts the reapers that
// turn a dead child into the first-failure error every subsequent
// operation reports. extraEnv entries ("KEY=val") are appended to each
// rank's environment — how the parent propagates runtime configuration
// (e.g. the codegen backend toggle) that ranks must agree on. A
// malformed EnvTimeout, or a call from inside a rank, is an error
// returned before any socket or process is created.
func Launch(ranks int, extraEnv ...string) (*Parent, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("dist: rank count %d out of range", ranks)
	}
	timeout, err := distTimeout()
	if err != nil {
		return nil, err
	}
	if r := os.Getenv(EnvRank); r != "" {
		return nil, fmt.Errorf("dist: Launch called in rank %s (%s is set): the binary must call MaybeRankMain first thing in main", r, EnvRank)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: locate executable: %w", err)
	}

	p := &Parent{
		conns:      make([]net.Conn, ranks),
		childErrs:  make([]error, ranks),
		timeout:    timeout,
		sentStores: map[ir.StoreID]bool{},
		kernelRefs: map[hash128.Sum]int64{},
	}
	if err := p.start(exe, extraEnv); err != nil {
		p.kill()
		for _, cmd := range p.cmds {
			_ = cmd.Wait() // reaps the rank killed above; its status is the kill
		}
		for _, conn := range p.conns {
			if conn != nil {
				conn.Close()
			}
		}
		return nil, err
	}
	for i := range p.cmds {
		p.reaped.Add(1)
		go p.reap(i)
	}
	return p, nil
}

// start makes the launch's socket pairs and starts every rank with its
// ends. Whether or not every rank started, it closes the parent's
// copies of the ranks' ends before it returns: a rank that dies must
// leave its parent and peers reading EOF.
func (p *Parent) start(exe string, extraEnv []string) error {
	ranks := len(p.conns)
	// ends[r] is what rank r inherits: its control end, then its peer
	// ends in rank order.
	ends := make([][]*os.File, ranks)
	defer func() {
		for _, fs := range ends {
			for _, f := range fs {
				f.Close()
			}
		}
	}()
	for r := range ends {
		pair, err := socketPair()
		if err != nil {
			return fmt.Errorf("dist: control pair for rank %d: %w", r, err)
		}
		ends[r] = append(ends[r], pair[1])
		if p.conns[r], err = fileConn(pair[0]); err != nil {
			return fmt.Errorf("dist: control pair for rank %d: %w", r, err)
		}
	}
	for i := range ends {
		for j := i + 1; j < ranks; j++ {
			pair, err := socketPair()
			if err != nil {
				return fmt.Errorf("dist: peer pair for ranks %d and %d: %w", i, j, err)
			}
			ends[i] = append(ends[i], pair[0])
			ends[j] = append(ends[j], pair[1])
		}
	}

	for r, fs := range ends {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			EnvRank+"="+strconv.Itoa(r),
			EnvRanks+"="+strconv.Itoa(ranks),
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		cmd.ExtraFiles = fs
		out := &tailBuffer{limit: 8 << 10}
		cmd.Stdout = out
		cmd.Stderr = out
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("dist: start rank %d: %w", r, err)
		}
		p.cmds = append(p.cmds, cmd)
		p.outputs = append(p.outputs, out)
	}
	return nil
}

// reap waits for one child and records its unexpected death. Every dead
// rank is recorded, not just the first: one death usually cascades (the
// peers' sockets break and they exit too), and the report must name
// the root cause along with its victims.
func (p *Parent) reap(i int) {
	defer p.reaped.Done()
	err := p.cmds[i].Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	switch {
	case err != nil:
		p.childErrs[i] = fmt.Errorf("dist: rank %d failed: %v%s", i, err, p.outputTailLocked(i))
	default:
		p.childErrs[i] = fmt.Errorf("dist: rank %d exited before shutdown%s", i, p.outputTailLocked(i))
	}
}

func (p *Parent) outputTailLocked(i int) string {
	if out := p.outputs[i].String(); out != "" {
		return "\n--- rank " + strconv.Itoa(i) + " output ---\n" + out
	}
	return ""
}

// Err returns the recorded child failures joined in rank order, or nil.
func (p *Parent) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return errors.Join(p.childErrs...)
}

// waitChildErr gives the reaper goroutines a moment to diagnose a
// transport error: a broken control stream almost always means a child
// died, and the reaped exit statuses (with output tails) name the dead
// ranks far better than a raw EOF. Once one death is recorded, a further
// beat lets the rest of a cascade land so the root cause is included.
func (p *Parent) waitChildErr() error {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Err() != nil {
			time.Sleep(100 * time.Millisecond)
			return p.Err()
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p.Err()
}

func (p *Parent) kill() {
	for _, cmd := range p.cmds {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}

// checkHealthy panics with the first child failure: the legion execution
// surface this backend implements has no error returns, and a dead rank
// makes every subsequent result undefined.
func (p *Parent) checkHealthy() {
	if err := p.Err(); err != nil {
		panic(err)
	}
}

// broadcast sends one control message to every rank, in rank order. The
// per-rank control streams are FIFO, and every message goes to every
// rank, so all ranks observe the identical sequence — the control-
// replication invariant.
func (p *Parent) broadcast(tag uint64, payload []byte) {
	p.checkHealthy()
	// One frame encode (into the reusable buffer) serves every rank, and
	// each rank gets header plus payload in a single write — broadcast
	// runs under the legion execution lock, so the buffer needs no lock
	// of its own.
	buf, err := appendFrame(p.wbuf[:0], tag, payload)
	p.wbuf = buf[:0]
	if err != nil {
		panic(fmt.Errorf("dist: %w", err))
	}
	for r, conn := range p.conns {
		// Bounded like every other transport operation: a rank whose
		// control stream stopped draining must surface as an error naming
		// it, not stall the parent indefinitely inside a TCP write.
		conn.SetWriteDeadline(time.Now().Add(p.timeout))
		if _, err := conn.Write(buf); err != nil {
			if cerr := p.waitChildErr(); cerr != nil {
				panic(cerr)
			}
			panic(fmt.Errorf("dist: send to rank %d: %w", r, err))
		}
	}
}

// recvFrom reads rank r's next message to the parent, which must carry
// the wanted tag and arrive by the deadline; what names the message in
// errors.
func (p *Parent) recvFrom(r int, want uint64, what string, deadline time.Time) []byte {
	conn := p.conns[r]
	conn.SetReadDeadline(deadline)
	tag, body, err := readFrame(conn)
	if err != nil {
		if cerr := p.waitChildErr(); cerr != nil {
			panic(cerr)
		}
		panic(fmt.Errorf("dist: waiting for rank %d %s: %w", r, what, err))
	}
	if tag != want {
		panic(fmt.Errorf("dist: unexpected message %d from rank %d (want %s)", tag, r, what))
	}
	return body
}

// reply reads rank 0's answer to the read request just broadcast.
func (p *Parent) reply() []byte {
	return p.recvFrom(0, msgReply, "reply", time.Now().Add(p.timeout))
}

func (p *Parent) ensureStore(s *ir.Store) {
	if p.sentStores[s.ID()] {
		return
	}
	p.broadcast(msgStoreNew, encodeStoreNew(s))
	p.sentStores[s.ID()] = true
}

func (p *Parent) ensureKernel(k *kir.Kernel) int64 {
	if k == nil {
		return -1
	}
	fp := k.FingerprintHash()
	if ref, ok := p.kernelRefs[fp]; ok {
		return ref
	}
	ref := p.nextKernel
	p.nextKernel++
	p.broadcast(msgKernel, append(idBody(ref), kir.EncodeKernel(k)...))
	p.kernelRefs[fp] = ref
	return ref
}

// Execute implements legion.Backend: forward one post-fusion task.
func (p *Parent) Execute(t *ir.Task) {
	if t.Payload != nil {
		panic(fmt.Errorf("dist: task %s carries a payload (sparse CSR providers cannot cross process boundaries); payload tasks are not supported in distributed mode", t.Name))
	}
	for i := range t.Args {
		p.ensureStore(t.Args[i].Store)
	}
	ref := p.ensureKernel(t.Kernel)
	b, err := ir.EncodeTask(t, ref)
	if err != nil {
		panic(fmt.Errorf("dist: %w", err))
	}
	p.broadcast(msgTask, b)
}

// ReadAt implements legion.Backend.
func (p *Parent) ReadAt(s *ir.Store, off int) (float64, bool) {
	p.ensureStore(s)
	p.broadcast(msgReadAt, encodeReadAt(s.ID(), off))
	r := wire.NewReader(p.reply())
	ok, v := r.Bool(), r.F64()
	if err := r.Done(); err != nil {
		panic(fmt.Errorf("dist: ReadAt reply: %w", err))
	}
	return v, ok
}

// ReadBuffer implements legion.Backend.
func (p *Parent) ReadBuffer(s *ir.Store) kir.Buffer {
	p.ensureStore(s)
	p.broadcast(msgRead, idBody(int64(s.ID())))
	id, data, err := decodeStoreData(p.reply())
	if err == nil && (id != s.ID() || data.DType() != s.DType() || data.Len() != s.Size()) {
		err = fmt.Errorf("dist: read of store %d (%v x %d) answered with store %d (%v x %d)",
			s.ID(), s.DType(), s.Size(), id, data.DType(), data.Len())
	}
	if err != nil {
		panic(err)
	}
	return data
}

// WriteBuffer implements legion.Backend.
func (p *Parent) WriteBuffer(s *ir.Store, data kir.Buffer) {
	p.ensureStore(s)
	p.broadcast(msgWrite, encodeStoreData(s.ID(), data))
}

// FreeStore implements legion.Backend.
func (p *Parent) FreeStore(id ir.StoreID) {
	if !p.sentStores[id] {
		// The store never reached the ranks; nothing to free there.
		return
	}
	p.broadcast(msgFree, idBody(int64(id)))
	delete(p.sentStores, id)
}

// Drain implements legion.Backend: a barrier. Every rank
// acknowledges after its shard group has drained, and Drain returns only
// once all of them have — a rank that dies or stalls instead surfaces as
// an error naming it within the transport deadline.
func (p *Parent) Drain() {
	p.broadcast(msgDrain, nil)
	deadline := time.Now().Add(p.timeout)
	for r := range p.conns {
		p.recvFrom(r, msgDrainAck, "drain acknowledgement", deadline)
	}
}

// Close implements legion.Backend: shut the ranks down, reap them,
// and report any recorded failures (nil on a clean run).
func (p *Parent) Close() error {
	p.mu.Lock()
	if p.closed {
		err := errors.Join(p.childErrs...)
		p.mu.Unlock()
		return err
	}
	firstErr := errors.Join(p.childErrs...)
	p.closed = true
	p.mu.Unlock()

	// Tell every rank to exit — even after a failure, so healthy ranks
	// stop promptly instead of waiting out the kill timeout. Send errors
	// to already-dead ranks are expected then and not reported twice.
	for r, conn := range p.conns {
		if err := writeFrame(conn, msgShutdown, nil); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dist: shutdown rank %d: %w", r, err)
		}
	}

	done := make(chan struct{})
	go func() {
		p.reaped.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(p.timeout):
		p.kill()
		<-done
		if firstErr == nil {
			firstErr = fmt.Errorf("dist: ranks did not exit within %v; killed", p.timeout)
		}
	}

	for _, conn := range p.conns {
		conn.Close()
	}
	return firstErr
}

var _ legion.Backend = (*Parent)(nil)
