package faultx

import (
	"reflect"
	"strings"
	"testing"
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

// TestOccurrenceCounting: a rule's occurrence index counts only the
// messages its own (op, peer, kind) selector sees, independent of
// unrelated traffic interleaved between them.
func TestOccurrenceCounting(t *testing.T) {
	sched := &Schedule{Rules: []Rule{
		{Rank: 0, Op: OpSend, Peer: 1, Kind: KindWrite, Occurrence: 2, Action: Truncate},
	}}
	inner := &fakeInner{}
	tx := Wrap(inner, 0, sched)

	// Interleave write sends to peer 1 with partials sends to peer 1 and
	// write sends to peer 2: only the 2nd write-to-1 matches.
	tx.Send(1, writeTag(0), make([]byte, 8)) // write-to-1 #1
	tx.Send(1, partialsTag(0), make([]byte, 8))
	tx.Send(2, writeTag(1), make([]byte, 8))
	tx.Send(1, writeTag(2), make([]byte, 8)) // write-to-1 #2 → truncated
	tx.Send(1, writeTag(3), make([]byte, 8)) // write-to-1 #3

	want := []string{
		key(1, writeTag(0), 8), key(1, partialsTag(0), 8), key(2, writeTag(1), 8),
		key(1, writeTag(2), 4), key(1, writeTag(3), 8),
	}
	if !reflect.DeepEqual(inner.sends, want) {
		t.Fatalf("inner sends %v, want %v", inner.sends, want)
	}
}

// TestWildcardProjections: wildcard-peer and wildcard-kind rules count on
// their own projections, so "the rank's 3rd send to anyone" matches the
// 3rd overall even when it is the 1st to that particular peer.
func TestWildcardProjections(t *testing.T) {
	sched := &Schedule{Rules: []Rule{
		{Rank: -1, Op: OpSend, Peer: -1, Kind: KindAny, Occurrence: 3, Action: Truncate},
	}}
	inner := &fakeInner{}
	tx := Wrap(inner, 5, sched)

	tx.Send(1, writeTag(0), make([]byte, 8))
	tx.Send(2, partialsTag(0), make([]byte, 8))
	tx.Send(3, writeTag(0), make([]byte, 8)) // 3rd overall → truncated
	tx.Send(1, writeTag(1), make([]byte, 8))

	want := []string{key(1, writeTag(0), 8), key(2, partialsTag(0), 8), key(3, writeTag(0), 4), key(1, writeTag(1), 8)}
	if !reflect.DeepEqual(inner.sends, want) {
		t.Fatalf("inner sends %v, want %v", inner.sends, want)
	}
}

// TestRankFilter: a rule naming another rank never fires here.
func TestRankFilter(t *testing.T) {
	sched := &Schedule{Rules: []Rule{
		{Rank: 1, Op: OpSend, Peer: -1, Kind: KindAny, Action: Sever},
	}}
	tx := Wrap(&fakeInner{}, 0, sched)
	for i := 0; i < 10; i++ {
		if err := tx.Send(1, writeTag(i), nil); err != nil {
			t.Fatalf("send %d: rule for rank 1 fired on rank 0: %v", i, err)
		}
	}
}

// TestSeverSticky: the first matched operation severs the link (closing
// it through LinkCloser exactly once); every subsequent operation on that
// peer fails without reaching the inner transport, while other peers stay
// reachable.
func TestSeverSticky(t *testing.T) {
	sched := &Schedule{Rules: []Rule{
		{Rank: 0, Op: OpSend, Peer: 1, Kind: KindWrite, Occurrence: 2, Action: Sever},
	}}
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
	if want := []string{key(1, writeTag(0), 0), key(2, writeTag(0), 0)}; !reflect.DeepEqual(inner.sends, want) || len(inner.recvs) != 0 {
		t.Fatalf("inner saw sends %v and recvs %v, want sends %v and no recvs", inner.sends, inner.recvs, want)
	}
}

// TestRecvTruncate: a recv-side truncate halves the delivered payload
// after the inner receive succeeds.
func TestRecvTruncate(t *testing.T) {
	sched := &Schedule{Rules: []Rule{
		{Rank: 0, Op: OpRecv, Peer: 1, Kind: KindWrite, Occurrence: 1, Action: Truncate},
	}}
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
	sched := &Schedule{Rules: []Rule{
		{Rank: 0, Op: OpSend, Peer: -1, Kind: KindWrite, Occurrence: 2, Action: Truncate},
		{Rank: 0, Op: OpRecv, Peer: 1, Kind: KindAny, Occurrence: 3, Action: Truncate},
	}}
	run := func() (sends []string, recvLens []int) {
		inner := &fakeInner{reply: make([]byte, 8)}
		tx := Wrap(inner, 0, sched)
		for i := 0; i < 4; i++ {
			tx.Send(1, writeTag(i), make([]byte, 8))
			data, _ := tx.Recv(1, partialsTag(i))
			recvLens = append(recvLens, len(data))
		}
		return inner.sends, recvLens
	}
	sends1, recvs1 := run()
	sends2, recvs2 := run()
	if !reflect.DeepEqual(sends1, sends2) || !reflect.DeepEqual(recvs1, recvs2) {
		t.Fatalf("replay diverged: %v/%v vs %v/%v", sends1, recvs1, sends2, recvs2)
	}
	// Exactly the 2nd send and the 3rd recv are halved.
	wantSends := []string{key(1, writeTag(0), 8), key(1, writeTag(1), 4), key(1, writeTag(2), 8), key(1, writeTag(3), 8)}
	if !reflect.DeepEqual(sends1, wantSends) || !reflect.DeepEqual(recvs1, []int{8, 8, 4, 8}) {
		t.Fatalf("sends %v and recv lengths %v, want %v and [8 8 4 8]", sends1, recvs1, wantSends)
	}
}
