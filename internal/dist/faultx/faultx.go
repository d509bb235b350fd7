// Package faultx is the deterministic fault-injection harness of the
// distributed runtime: a transport wrapper that intercepts every message
// boundary of a rank's peer mesh and applies a scripted fault schedule —
// delay, drop-then-retry, truncate, or sever — to exactly the messages
// the script names. Schedules are matched on (rank, operation, peer,
// tag kind, occurrence), never on wall-clock time or unseeded
// randomness, so a failing chaos run replays bit-for-bit.
//
// The wrapper sits between legion's distributed drain and the real
// transport (internal/dist wires it in when DIFFUSE_DIST_FAULTS is set),
// which makes the fault model precise: a *transient* fault (delay,
// drop-then-retry) still delivers the message, and the run must converge
// bit-identically to a fault-free one; a *fatal* fault (truncate, sever)
// breaks the contract the drain depends on, and the runtime must surface
// a wrapped error naming the failed rank within the transport deadline —
// never hang.
package faultx

import (
	"fmt"
	"strconv"
	"strings"
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

func (o Op) String() string {
	if o == OpSend {
		return "send"
	}
	return "recv"
}

// Action is the fault applied to a matched message.
type Action uint8

const (
	// Delay sleeps for Rule.Delay before the operation proceeds. The
	// message is still delivered: a delayed run must stay bit-identical.
	Delay Action = iota
	// DropRetry drops the first transmission attempt and immediately
	// retries it — the shape of a retransmit after loss. The message is
	// delivered exactly once; only the attempt count changes.
	DropRetry
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

var actionNames = map[string]Action{
	"delay":    Delay,
	"drop":     DropRetry,
	"truncate": Truncate,
	"sever":    Sever,
}

func (a Action) String() string {
	for n, v := range actionNames {
		if v == a {
			return n
		}
	}
	return fmt.Sprintf("action(%d)", a)
}

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

var kindNames = map[string]int{
	"write":    KindWrite,
	"partials": KindPartials,
	"*":        KindAny,
}

func tagKind(tag uint64) int { return int(tag>>28) & 0xF }

// Rule matches one class of messages and applies one fault.
type Rule struct {
	// Rank is the rank this rule fires on (-1: every rank). A schedule is
	// shared by every rank of a launch through one environment variable,
	// so each rule names its rank.
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

// ParseSchedule parses the DIFFUSE_DIST_FAULTS syntax: comma-separated
// rules, each `rank:op:peer:kind:occurrence:action[:delay]`, with `*`
// wildcards for rank, peer, kind, and occurrence. Examples:
//
//	1:send:0:write:3:delay:50ms  rank 1's 3rd write send to rank 0 is late
//	1:send:*:*:5:sever           rank 1's 5th send severs that link
//	*:recv:*:partials:1:truncate every rank's 1st partials recv truncates
func ParseSchedule(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		parts := strings.Split(raw, ":")
		if len(parts) < 6 {
			return nil, fmt.Errorf("faultx: rule %q: want rank:op:peer:kind:occurrence:action[:delay]", raw)
		}
		var r Rule
		var err error
		if r.Rank, err = parseIntOrStar(parts[0]); err != nil {
			return nil, fmt.Errorf("faultx: rule %q rank: %w", raw, err)
		}
		switch parts[1] {
		case "send":
			r.Op = OpSend
		case "recv":
			r.Op = OpRecv
		default:
			return nil, fmt.Errorf("faultx: rule %q op %q: want send or recv", raw, parts[1])
		}
		if r.Peer, err = parseIntOrStar(parts[2]); err != nil {
			return nil, fmt.Errorf("faultx: rule %q peer: %w", raw, err)
		}
		kind, ok := kindNames[parts[3]]
		if !ok {
			return nil, fmt.Errorf("faultx: rule %q kind %q: want write, partials, or *", raw, parts[3])
		}
		r.Kind = kind
		if r.Occurrence, err = parseIntOrStar(parts[4]); err != nil {
			return nil, fmt.Errorf("faultx: rule %q occurrence: %w", raw, err)
		}
		if r.Occurrence < 0 {
			r.Occurrence = 0 // `*`: every occurrence
		}
		act, ok := actionNames[parts[5]]
		if !ok {
			return nil, fmt.Errorf("faultx: rule %q action %q: want delay, drop, truncate, or sever", raw, parts[5])
		}
		r.Action = act
		if act == Delay {
			if len(parts) != 7 {
				return nil, fmt.Errorf("faultx: rule %q: delay wants a duration argument", raw)
			}
			if r.Delay, err = time.ParseDuration(parts[6]); err != nil {
				return nil, fmt.Errorf("faultx: rule %q delay: %w", raw, err)
			}
		} else if len(parts) != 6 {
			return nil, fmt.Errorf("faultx: rule %q: %s takes no argument", raw, parts[5])
		}
		s.Rules = append(s.Rules, r)
	}
	return s, nil
}

func parseIntOrStar(s string) (int, error) {
	if s == "*" {
		return -1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%q: want a non-negative integer or *", s)
	}
	return v, nil
}

// Render serializes the schedule back to the ParseSchedule syntax — how
// tests hand a programmatic schedule to rank subprocesses through the
// environment.
func (s *Schedule) Render() string {
	var b strings.Builder
	for i, r := range s.Rules {
		if i > 0 {
			b.WriteByte(',')
		}
		star := func(v int) string {
			if v < 0 {
				return "*"
			}
			return strconv.Itoa(v)
		}
		kind := "*"
		for n, v := range kindNames {
			if v == r.Kind && n != "*" {
				kind = n
			}
		}
		occ := star(r.Occurrence)
		if r.Occurrence == 0 {
			occ = "*"
		}
		fmt.Fprintf(&b, "%s:%s:%s:%s:%s:%s", star(r.Rank), r.Op, star(r.Peer), kind, occ, r.Action)
		if r.Action == Delay {
			fmt.Fprintf(&b, ":%s", r.Delay)
		}
	}
	return b.String()
}

// Stats counts the faults the wrapper fired (one wrapper = one rank).
type Stats struct {
	Delayed   int64
	Dropped   int64
	Truncated int64
	Severed   int64
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
	stats   Stats
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

// Stats returns a snapshot of the fired-fault counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
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
	if first {
		t.stats.Severed++
	}
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
		t.count(&t.stats.Delayed)
		time.Sleep(r.Delay)
		return t.inner.Send(peer, tag, data)
	case DropRetry:
		// The first transmission is dropped before it reaches the wire;
		// the immediate retry delivers. Exactly-once delivery holds.
		t.count(&t.stats.Dropped)
		return t.inner.Send(peer, tag, data)
	case Truncate:
		t.count(&t.stats.Truncated)
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
		t.count(&t.stats.Delayed)
		time.Sleep(r.Delay)
		return t.inner.Recv(peer, tag)
	case DropRetry:
		t.count(&t.stats.Dropped)
		return t.inner.Recv(peer, tag)
	case Truncate:
		data, err := t.inner.Recv(peer, tag)
		if err != nil {
			return nil, err
		}
		t.count(&t.stats.Truncated)
		return data[:len(data)/2], nil
	case Sever:
		return nil, t.sever(peer)
	}
	return t.inner.Recv(peer, tag)
}

func (t *Transport) count(c *int64) {
	t.mu.Lock()
	*c++
	t.mu.Unlock()
}
