package faultx

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeInner records every operation that reaches the wrapped transport,
// so tests can assert exactly which messages the fault layer let through.
type fakeInner struct {
	sends  []string
	recvs  []string
	closed []int
	reply  []byte
}

func (f *fakeInner) Send(peer int, tag uint64, data []byte) error {
	f.sends = append(f.sends, key(peer, tag, len(data)))
	return nil
}

func (f *fakeInner) Recv(peer int, tag uint64) ([]byte, error) {
	f.recvs = append(f.recvs, key(peer, tag, len(f.reply)))
	return f.reply, nil
}

func (f *fakeInner) CloseLink(peer int) { f.closed = append(f.closed, peer) }

func key(peer int, tag uint64, n int) string {
	return string(rune('0'+peer)) + ":" + string(rune('a'+tagKind(tag))) + ":" + string(rune('0'+n%10))
}

func writeTag(sub int) uint64    { return uint64(KindWrite)<<28 | uint64(sub) }
func partialsTag(sub int) uint64 { return uint64(KindPartials)<<28 | uint64(sub) }

func TestParseScheduleRoundTrip(t *testing.T) {
	spec := "1:send:0:write:3:delay:50ms,1:send:*:*:5:sever,*:recv:*:partials:1:truncate,0:recv:2:write:*:drop"
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Rank: 1, Op: OpSend, Peer: 0, Kind: KindWrite, Occurrence: 3, Action: Delay, Delay: 50 * time.Millisecond},
		{Rank: 1, Op: OpSend, Peer: -1, Kind: KindAny, Occurrence: 5, Action: Sever},
		{Rank: -1, Op: OpRecv, Peer: -1, Kind: KindPartials, Occurrence: 1, Action: Truncate},
		{Rank: 0, Op: OpRecv, Peer: 2, Kind: KindWrite, Occurrence: 0, Action: DropRetry},
	}
	if !reflect.DeepEqual(s.Rules, want) {
		t.Fatalf("parsed %+v, want %+v", s.Rules, want)
	}

	// Render must round-trip through ParseSchedule to the identical rules —
	// the property the e2e tests rely on when handing schedules to rank
	// subprocesses via the environment.
	back, err := ParseSchedule(s.Render())
	if err != nil {
		t.Fatalf("re-parse %q: %v", s.Render(), err)
	}
	if !reflect.DeepEqual(back.Rules, s.Rules) {
		t.Fatalf("round trip through %q: %+v, want %+v", s.Render(), back.Rules, s.Rules)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"1:send:0:write:3",            // missing action
		"x:send:0:write:3:sever",      // bad rank
		"1:poke:0:write:3:sever",      // bad op
		"1:send:0:gluon:3:sever",      // bad kind
		"1:send:0:write:3:explode",    // bad action
		"1:send:0:write:3:delay",      // delay without duration
		"1:send:0:write:3:delay:fast", // bad duration
		"1:send:0:write:3:sever:50ms", // argument on an argless action
		"-2:send:0:write:3:sever",     // negative rank (only * means any)
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) accepted a malformed rule", spec)
		}
	}
	// Empty rules and whitespace are tolerated.
	s, err := ParseSchedule(" , 1:send:0:write:1:sever , ")
	if err != nil || len(s.Rules) != 1 {
		t.Fatalf("whitespace spec: rules=%v err=%v", s, err)
	}
}

// TestOccurrenceCounting: a rule's occurrence index counts only the
// messages its own (op, peer, kind) selector sees, independent of
// unrelated traffic interleaved between them.
func TestOccurrenceCounting(t *testing.T) {
	sched, err := ParseSchedule("0:send:1:write:2:drop")
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeInner{}
	tx := Wrap(inner, 0, sched)

	// Interleave write sends to peer 1 with partials sends to peer 1 and
	// write sends to peer 2: only the 2nd write-to-1 matches.
	tx.Send(1, writeTag(0), make([]byte, 8)) // write-to-1 #1
	tx.Send(1, partialsTag(0), make([]byte, 8))
	tx.Send(2, writeTag(1), make([]byte, 8))
	tx.Send(1, writeTag(2), make([]byte, 8)) // write-to-1 #2 → dropped+retried
	tx.Send(1, writeTag(3), make([]byte, 8)) // write-to-1 #3

	if got := tx.Stats().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	// DropRetry is exactly-once: every send still reached the inner
	// transport exactly one time.
	if len(inner.sends) != 5 {
		t.Fatalf("inner saw %d sends, want 5: %v", len(inner.sends), inner.sends)
	}
}

// TestWildcardProjections: wildcard-peer and wildcard-kind rules count on
// their own projections, so "the rank's 3rd send to anyone" matches the
// 3rd overall even when it is the 1st to that particular peer.
func TestWildcardProjections(t *testing.T) {
	sched, err := ParseSchedule("*:send:*:*:3:truncate")
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeInner{}
	tx := Wrap(inner, 5, sched)

	tx.Send(1, writeTag(0), make([]byte, 8))
	tx.Send(2, partialsTag(0), make([]byte, 8))
	tx.Send(3, writeTag(0), make([]byte, 8)) // 3rd overall → truncated
	tx.Send(1, writeTag(1), make([]byte, 8))

	if got := tx.Stats().Truncated; got != 1 {
		t.Fatalf("Truncated = %d, want 1", got)
	}
	want := []string{key(1, writeTag(0), 8), key(2, partialsTag(0), 8), key(3, writeTag(0), 4), key(1, writeTag(1), 8)}
	if !reflect.DeepEqual(inner.sends, want) {
		t.Fatalf("inner sends %v, want %v", inner.sends, want)
	}
}

// TestRankFilter: a rule naming another rank never fires here.
func TestRankFilter(t *testing.T) {
	sched, err := ParseSchedule("1:send:*:*:*:sever")
	if err != nil {
		t.Fatal(err)
	}
	tx := Wrap(&fakeInner{}, 0, sched)
	for i := 0; i < 10; i++ {
		if err := tx.Send(1, writeTag(i), nil); err != nil {
			t.Fatalf("send %d: rule for rank 1 fired on rank 0: %v", i, err)
		}
	}
}

// TestSeverSticky: the first matched operation severs the link (closing
// it through LinkCloser exactly once); every subsequent operation on that
// peer fails, while other peers stay reachable.
func TestSeverSticky(t *testing.T) {
	sched, err := ParseSchedule("0:send:1:write:2:sever")
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeInner{reply: make([]byte, 8)}
	tx := Wrap(inner, 0, sched)

	if err := tx.Send(1, writeTag(0), nil); err != nil {
		t.Fatalf("send before sever: %v", err)
	}
	if err := tx.Send(1, writeTag(1), nil); err == nil {
		t.Fatal("matched send did not sever")
	}
	// Sticky: sends and recvs on the severed link keep failing without
	// re-matching rules, and the error names both ranks.
	if err := tx.Send(1, partialsTag(0), nil); err == nil {
		t.Fatal("send after sever succeeded")
	} else if s := err.Error(); !strings.Contains(s, "rank 0") || !strings.Contains(s, "rank 1") {
		t.Fatalf("sever error does not name the ranks: %v", err)
	}
	if _, err := tx.Recv(1, writeTag(9)); err == nil {
		t.Fatal("recv after sever succeeded")
	}
	// Unaffected peer still works.
	if err := tx.Send(2, writeTag(0), nil); err != nil {
		t.Fatalf("send to peer 2 after severing peer 1: %v", err)
	}
	if !reflect.DeepEqual(inner.closed, []int{1}) {
		t.Fatalf("CloseLink calls %v, want [1]", inner.closed)
	}
	if got := tx.Stats().Severed; got != 1 {
		t.Fatalf("Severed = %d, want 1", got)
	}
}

// TestRecvTruncate: a recv-side truncate halves the delivered payload
// after the inner receive succeeds.
func TestRecvTruncate(t *testing.T) {
	sched, err := ParseSchedule("0:recv:1:write:1:truncate")
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeInner{reply: make([]byte, 16)}
	tx := Wrap(inner, 0, sched)
	data, err := tx.Recv(1, writeTag(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8 {
		t.Fatalf("truncated recv delivered %d bytes, want 8", len(data))
	}
	if data2, _ := tx.Recv(1, writeTag(1)); len(data2) != 16 {
		t.Fatalf("second recv delivered %d bytes, want 16 (occurrence 1 only)", len(data2))
	}
}

// TestDeterministicReplay: two wrappers fed the identical message
// sequence fire the identical faults — the replayability property the
// whole harness exists for.
func TestDeterministicReplay(t *testing.T) {
	sched, err := ParseSchedule("0:send:*:write:2:drop,0:recv:1:*:3:truncate")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (Stats, []string) {
		inner := &fakeInner{reply: make([]byte, 8)}
		tx := Wrap(inner, 0, sched)
		for i := 0; i < 4; i++ {
			tx.Send(1, writeTag(i), make([]byte, 8))
			tx.Recv(1, partialsTag(i))
		}
		return tx.Stats(), append(inner.sends, inner.recvs...)
	}
	s1, log1 := run()
	s2, log2 := run()
	if s1 != s2 || !reflect.DeepEqual(log1, log2) {
		t.Fatalf("replay diverged: %+v/%v vs %+v/%v", s1, log1, s2, log2)
	}
	if s1.Dropped != 1 || s1.Truncated != 1 {
		t.Fatalf("stats %+v, want 1 drop and 1 truncate", s1)
	}
}
