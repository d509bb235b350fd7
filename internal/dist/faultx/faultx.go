// Package faultx is the deterministic fault-injection harness of the
// distributed runtime's tests: a transport wrapper that intercepts every
// message boundary of a rank's peer mesh and applies a fault schedule —
// delay, truncate, or sever — to exactly the messages the schedule
// names. Schedules are Go values matched on (rank, operation, peer, tag
// kind, occurrence), never on wall-clock time or unseeded randomness, so
// a failing chaos run replays bit-for-bit.
//
// The wrapper sits between legion's distributed drain and the real
// transport (internal/dist's tests install it through the rank's mesh
// hook; no product package imports faultx), which makes the fault model
// precise: a *transient* fault (delay) still delivers the message, and
// the run must converge bit-identically to a fault-free one; a *fatal*
// fault (truncate, sever) breaks the contract the drain depends on, and
// the runtime must surface a wrapped error naming the failed rank within
// the transport deadline — never hang.
package faultx

import (
	"fmt"
	"sync"
	"time"
)

// Op is the transport operation a rule intercepts.
type Op uint8

const (
	// OpSend matches outgoing messages.
	OpSend Op = iota
	// OpRecv matches incoming messages.
	OpRecv
)

// Action is the fault applied to a matched message.
type Action uint8

const (
	// Delay sleeps for Rule.Delay before the operation proceeds. The
	// message is still delivered: a delayed run must stay bit-identical.
	Delay Action = iota
	// Truncate delivers only the first half of the payload. The receiver's
	// length and framing checks must turn this into an error naming the
	// peer, never a silent wrong answer.
	Truncate
	// Sever fails the link to the peer permanently: the matched and every
	// subsequent operation on that peer errors, and the underlying
	// connection is closed when the transport supports it (LinkCloser), so
	// the peer observes the break too.
	Sever
)

// Tag kinds of legion's distributed message-tag layout
// (| groupSeq (32) | kind (4) | entry (20) | sub (8) |), so rules can
// target one traffic class: a unit's write span, or its slice of a
// reduction's partials. Mirrors internal/legion/dist.go.
const (
	KindWrite    = 0
	KindPartials = 1
	// KindAny matches every tag.
	KindAny = -1
)

func tagKind(tag uint64) int { return int(tag>>28) & 0xF }

// Rule matches one class of messages and applies one fault.
type Rule struct {
	// Rank is the rank this rule fires on (-1: every rank). A schedule is
	// shared by every rank of a launch, so each rule names its rank.
	Rank int
	// Op selects the direction at the firing rank.
	Op Op
	// Peer is the link peer (-1: every peer).
	Peer int
	// Kind filters on legion's tag kind (KindAny: every kind).
	Kind int
	// Occurrence is the 1-based index of the matched message among those
	// this rule's (op, peer, kind) selector sees; 0 matches every one.
	Occurrence int
	// Action is the fault to apply.
	Action Action
	// Delay is the sleep of a Delay action.
	Delay time.Duration
}

// Schedule is an ordered fault script; the first matching rule wins.
type Schedule struct {
	Rules []Rule
}

// Inner is the wrapped transport surface — legion.HaloTransport,
// restated locally so faultx depends on neither legion nor dist.
type Inner interface {
	Send(peer int, tag uint64, data []byte) error
	Recv(peer int, tag uint64) ([]byte, error)
}

// LinkCloser is optionally implemented by transports that can sever one
// peer link (dist.Transport.CloseLink); Sever uses it so the remote end
// of the link observes the break instead of timing out.
type LinkCloser interface {
	CloseLink(peer int)
}

// Transport applies a Schedule to an inner transport. Safe for
// concurrent use to the extent the inner transport is.
type Transport struct {
	inner Inner
	me    int
	sched *Schedule

	mu      sync.Mutex
	counts  map[countKey]int
	severed map[int]bool
}

type countKey struct {
	op   Op
	peer int
	kind int
}

// Wrap builds the fault-injecting view of inner as seen by rank me.
func Wrap(inner Inner, me int, sched *Schedule) *Transport {
	return &Transport{
		inner:   inner,
		me:      me,
		sched:   sched,
		counts:  map[countKey]int{},
		severed: map[int]bool{},
	}
}

// match advances the occurrence counters for one message and returns the
// first matching rule, if any. Every message increments one counter per
// selector projection — (peer, kind), (peer, *), (*, kind), (*, *) — so
// each rule's occurrence index counts exactly the messages its own
// selector sees, which is what makes a script like "3rd write send to
// rank 0" deterministic regardless of unrelated traffic.
func (t *Transport) match(op Op, peer int, tag uint64) (Rule, bool) {
	kind := tagKind(tag)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.severed[peer] {
		return Rule{Action: Sever}, true
	}
	for _, p := range [2]int{peer, -1} {
		for _, k := range [2]int{kind, KindAny} {
			t.counts[countKey{op, p, k}]++
		}
	}
	for _, r := range t.sched.Rules {
		if r.Rank >= 0 && r.Rank != t.me {
			continue
		}
		if r.Op != op || (r.Peer >= 0 && r.Peer != peer) {
			continue
		}
		if r.Kind != KindAny && r.Kind != kind {
			continue
		}
		rp := peer
		if r.Peer < 0 {
			rp = -1
		}
		if n := t.counts[countKey{op, rp, r.Kind}]; r.Occurrence != 0 && r.Occurrence != n {
			continue
		}
		return r, true
	}
	return Rule{}, false
}

func (t *Transport) severErr(peer int) error {
	return fmt.Errorf("faultx: rank %d link to rank %d severed by fault schedule", t.me, peer)
}

func (t *Transport) sever(peer int) error {
	t.mu.Lock()
	first := !t.severed[peer]
	t.severed[peer] = true
	t.mu.Unlock()
	if lc, ok := t.inner.(LinkCloser); ok && first {
		lc.CloseLink(peer)
	}
	return t.severErr(peer)
}

// Send implements the transport surface with faults applied.
func (t *Transport) Send(peer int, tag uint64, data []byte) error {
	r, ok := t.match(OpSend, peer, tag)
	if !ok {
		return t.inner.Send(peer, tag, data)
	}
	switch r.Action {
	case Delay:
		time.Sleep(r.Delay)
	case Truncate:
		return t.inner.Send(peer, tag, data[:len(data)/2])
	case Sever:
		return t.sever(peer)
	}
	return t.inner.Send(peer, tag, data)
}

// Recv implements the transport surface with faults applied.
func (t *Transport) Recv(peer int, tag uint64) ([]byte, error) {
	r, ok := t.match(OpRecv, peer, tag)
	if !ok {
		return t.inner.Recv(peer, tag)
	}
	switch r.Action {
	case Delay:
		time.Sleep(r.Delay)
	case Truncate:
		data, err := t.inner.Recv(peer, tag)
		if err != nil {
			return nil, err
		}
		return data[:len(data)/2], nil
	case Sever:
		return nil, t.sever(peer)
	}
	return t.inner.Recv(peer, tag)
}
