package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// defaultTimeout bounds every transport receive: a peer that died (or
// diverged from the replicated schedule) surfaces as an error naming the
// peer instead of a silent hang. Overridable via EnvTimeout.
const defaultTimeout = 60 * time.Second

func distTimeout() time.Duration {
	if s := os.Getenv(EnvTimeout); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			return d
		}
	}
	return defaultTimeout
}

// Transport is the rank-to-rank peer mesh: one unix-domain socket
// connection per peer, a reader goroutine per connection draining frames
// into per-tag mailboxes, and blocking tagged
// receives with a deadline. Sends never block on the receiver's progress
// (the kernel socket buffer plus the receiver's always-running reader
// goroutine absorb them) — the property the distributed drain's
// deadlock-freedom argument rests on.
type Transport struct {
	me      int
	links   []*peerLink // indexed by rank; nil at me
	timeout time.Duration
}

type peerLink struct {
	rank int
	conn net.Conn

	wmu  sync.Mutex // serializes sends
	wbuf []byte     // reusable frame-encode buffer (guarded by wmu)

	mu    sync.Mutex
	cond  *sync.Cond
	boxes map[uint64][][]byte // tag → FIFO of undelivered payloads
	err   error               // sticky reader failure (peer died)
}

func newPeerLink(rank int, conn net.Conn) *peerLink {
	l := &peerLink{rank: rank, conn: conn, boxes: map[uint64][][]byte{}}
	l.cond = sync.NewCond(&l.mu)
	go l.read()
	return l
}

// read drains the connection into the mailboxes until it fails; the
// failure is sticky, so a dead peer fails every pending and future
// receive immediately rather than waiting out their deadlines.
func (l *peerLink) read() {
	for {
		tag, payload, err := readFrame(l.conn)
		l.mu.Lock()
		if err != nil {
			l.err = fmt.Errorf("connection to rank %d lost: %w", l.rank, err)
			l.mu.Unlock()
			l.cond.Broadcast()
			return
		}
		l.boxes[tag] = append(l.boxes[tag], payload)
		l.mu.Unlock()
		l.cond.Broadcast()
	}
}

func (l *peerLink) send(tag uint64, data []byte, timeout time.Duration) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	// Encode into the reusable per-peer buffer and write the whole frame
	// in one syscall: at smoke sizes (n=256) per-frame allocation and the
	// separate header write dominate the payloads themselves.
	buf, err := appendFrame(l.wbuf[:0], tag, data)
	l.wbuf = buf[:0]
	if err != nil {
		return fmt.Errorf("send to rank %d: %w", l.rank, err)
	}
	// A write deadline bounds the send against a peer that stopped
	// draining entirely (its kernel buffer full, its reader gone): such a
	// write can otherwise block indefinitely.
	l.conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := l.conn.Write(buf); err != nil {
		return fmt.Errorf("send to rank %d: %w", l.rank, err)
	}
	return nil
}

func (l *peerLink) recv(tag uint64, timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, l.cond.Broadcast)
	defer wake.Stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if q := l.boxes[tag]; len(q) > 0 {
			data := q[0]
			if len(q) == 1 {
				delete(l.boxes, tag)
			} else {
				l.boxes[tag] = q[1:]
			}
			return data, nil
		}
		if l.err != nil {
			return nil, l.err
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("timed out after %v waiting for rank %d (tag %#x): peer dead or stalled", timeout, l.rank, tag)
		}
		l.cond.Wait()
	}
}

// Send implements legion.HaloTransport.
func (t *Transport) Send(peer int, tag uint64, data []byte) error {
	l := t.link(peer)
	if l == nil {
		return fmt.Errorf("rank %d has no link to rank %d", t.me, peer)
	}
	return l.send(tag, data, t.timeout)
}

// Recv implements legion.HaloTransport.
func (t *Transport) Recv(peer int, tag uint64) ([]byte, error) {
	l := t.link(peer)
	if l == nil {
		return nil, fmt.Errorf("rank %d has no link to rank %d", t.me, peer)
	}
	return l.recv(tag, t.timeout)
}

func (t *Transport) link(peer int) *peerLink {
	if peer < 0 || peer >= len(t.links) {
		return nil
	}
	return t.links[peer]
}

// Close tears the mesh down.
func (t *Transport) Close() {
	for _, l := range t.links {
		if l != nil {
			l.conn.Close()
		}
	}
}

// CloseLink severs the connection to one peer while leaving the rest of
// the mesh intact — the hook the fault-injection wrapper (faultx) uses to
// model a failed network link. Subsequent operations on the link fail on
// both ends: locally through the sticky reader error, remotely when the
// peer's reads hit the closed connection.
func (t *Transport) CloseLink(peer int) {
	if l := t.link(peer); l != nil {
		l.conn.Close()
	}
}

// Every endpoint of a launch is a socket file in one private rendezvous
// directory the parent creates and hands the ranks in EnvDir: the
// parent's control socket and one peer listen socket per rank, named by
// rank number.

func parentSocket(dir string) string { return filepath.Join(dir, "parent.sock") }

func rankSocket(dir string, rank int) string {
	return filepath.Join(dir, "rank-"+strconv.Itoa(rank)+".sock")
}

// dialRetry dials a unix socket, retrying with exponential backoff until
// the deadline while the listener is not up yet (the socket file missing,
// or nothing accepting on it). Permanent failures — a path too long for a
// socket address, say — fail fast without consuming the budget.
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := time.Millisecond
	for {
		conn, err := net.DialTimeout("unix", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if errors.Is(err, syscall.EINVAL) {
			return nil, fmt.Errorf("dial %s: permanent failure: %w", addr, err)
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// connectMesh builds the full peer mesh of rank me among ranks: listen on
// this rank's socket in the rendezvous directory, dial every lower rank
// (introducing ourselves with a hello frame), and accept every higher
// rank. Every rank listens before it dials, so the dial-low/accept-high
// orientation cannot deadlock; dials retry while lower-rank listeners
// start up.
func connectMesh(dir string, me, ranks int, timeout time.Duration) (*Transport, error) {
	t := &Transport{me: me, links: make([]*peerLink, ranks), timeout: timeout}
	ln, err := net.Listen("unix", rankSocket(dir, me))
	if err != nil {
		return nil, fmt.Errorf("rank %d listen: %w", me, err)
	}
	defer ln.Close()

	for peer := 0; peer < me; peer++ {
		conn, err := dialRetry(rankSocket(dir, peer), timeout)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("rank %d connect to rank %d: %w", me, peer, err)
		}
		if err := writeFrame(conn, msgHello, idBody(int64(me))); err != nil {
			t.Close()
			return nil, fmt.Errorf("rank %d hello to rank %d: %w", me, peer, err)
		}
		t.links[peer] = newPeerLink(peer, conn)
	}

	ln.(*net.UnixListener).SetDeadline(time.Now().Add(timeout))
	for n := me + 1; n < ranks; n++ {
		conn, err := ln.Accept()
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("rank %d accept: %w", me, err)
		}
		tag, body, err := readFrame(conn)
		if err != nil || tag != msgHello {
			conn.Close()
			t.Close()
			return nil, fmt.Errorf("rank %d: bad hello (tag %d): %v", me, tag, err)
		}
		peer64, err := readIDBody(body)
		peer := int(peer64)
		if err != nil || peer <= me || peer >= ranks || t.links[peer] != nil {
			conn.Close()
			t.Close()
			return nil, fmt.Errorf("rank %d: hello names invalid peer %d", me, peer)
		}
		t.links[peer] = newPeerLink(peer, conn)
	}
	return t, nil
}
