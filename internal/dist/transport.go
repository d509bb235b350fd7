package dist

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// defaultTimeout bounds every transport receive: a peer that died (or
// diverged from the replicated schedule) surfaces as an error naming the
// peer instead of a silent hang. Overridable via EnvTimeout.
const defaultTimeout = 60 * time.Second

func distTimeout() (time.Duration, error) {
	s := os.Getenv(EnvTimeout)
	if s == "" {
		return defaultTimeout, nil
	}
	if d, err := time.ParseDuration(s); err == nil && d > 0 {
		return d, nil
	}
	return 0, fmt.Errorf("dist: %s=%q: want a positive duration such as \"2s\"", EnvTimeout, s)
}

// Transport is the rank-to-rank peer mesh: one end of a unix-domain
// socket pair per peer, a reader goroutine per connection draining frames
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

// newTransport starts rank me's mesh over conns, one connection per
// peer indexed by rank and nil at me.
func newTransport(me int, conns []net.Conn, timeout time.Duration) *Transport {
	t := &Transport{me: me, links: make([]*peerLink, len(conns)), timeout: timeout}
	for peer, conn := range conns {
		if conn != nil {
			t.links[peer] = newPeerLink(peer, conn)
		}
	}
	return t
}

// fileConn turns one end of a socket pair into a net.Conn and closes
// the file, whose descriptor the conn holds a duplicate of.
func fileConn(f *os.File) (net.Conn, error) {
	conn, err := net.FileConn(f)
	f.Close()
	return conn, err
}

// peerFD is the descriptor at which rank me inherits its end of the
// pair it shares with peer: the control end is at fd 3, then one end
// per peer in rank order from fd 4, me's own number skipped.
func peerFD(me, peer int) uintptr {
	if peer > me {
		peer--
	}
	return uintptr(4 + peer)
}
