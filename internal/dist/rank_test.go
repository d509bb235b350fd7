package dist

import (
	"errors"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/wire"
)

// TestRankControlLoop drives rank 0's control loop in process over a
// pipe, message by message: each message executes before the next is
// read, rank 0 replies to reads, a drain is acknowledged, and a bad
// message, an early EOF or a shutdown ends the loop.
func TestRankControlLoop(t *testing.T) {
	start := func() (*rankState, net.Conn, <-chan error) {
		rt := legion.New(nil)
		t.Cleanup(func() { rt.Close() })
		rs := &rankState{me: 0, rt: rt, stores: map[ir.StoreID]*ir.Store{}, kernels: map[int64]*kir.Kernel{}}
		parent, rank := net.Pipe()
		t.Cleanup(func() { parent.Close() })
		done := make(chan error, 1)
		go func() { done <- rs.controlLoop(rank) }()
		return rs, parent, done
	}
	send := func(c net.Conn, tag uint64, body []byte) {
		t.Helper()
		if err := writeFrame(c, tag, body); err != nil {
			t.Fatalf("send message %d: %v", tag, err)
		}
	}
	recv := func(c net.Conn, want uint64) []byte {
		t.Helper()
		tag, body, err := readFrame(c)
		if err != nil || tag != want {
			t.Fatalf("got message %d (%v), want %d", tag, err, want)
		}
		return body
	}
	ended := func(done <-chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("control loop did not return")
			return nil
		}
	}

	var f ir.Factory
	x, y := f.NewStore("x", []int{16}), f.NewStore("y", []int{16})
	k := kir.NewKernel("copy", 2)
	k.SetDType(0, kir.F64)
	k.SetDType(1, kir.F64)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Load(0)}}})
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tp := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	copyTask, err := ir.EncodeTask(&ir.Task{Name: "copy", Launch: launch, Kernel: k, Args: []ir.Arg{
		{Store: x, Part: tp, Priv: ir.Read},
		{Store: y, Part: tp, Priv: ir.Write},
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 16)
	for i := range want {
		want[i] = float64(i) + 0.25
	}
	want[5] = math.Copysign(0, -1)

	rs, parent, done := start()
	send(parent, msgStoreNew, encodeStoreNew(x))
	send(parent, msgStoreNew, encodeStoreNew(y))
	send(parent, msgWrite, encodeStoreData(x.ID(), kir.BufF64(want)))
	send(parent, msgKernel, append(idBody(0), kir.EncodeKernel(k)...))
	send(parent, msgTask, copyTask)
	send(parent, msgRead, idBody(int64(y.ID())))
	id, data, err := decodeStoreData(recv(parent, msgReply))
	if err != nil || id != y.ID() || data.Len() != len(want) {
		t.Fatalf("read reply: store %d x %d, %v", id, data.Len(), err)
	}
	for i, v := range data.F64() {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("read reply [%d] = %v, want %v", i, v, want[i])
		}
	}

	send(parent, msgReadAt, encodeReadAt(y.ID(), 7))
	r := wire.NewReader(recv(parent, msgReply))
	if ok, v := r.Bool(), r.F64(); r.Done() != nil || !ok || v != want[7] {
		t.Fatalf("ReadAt reply: %v, %v (%v), want true, %v", ok, v, r.Done(), want[7])
	}

	send(parent, msgDrain, nil)
	recv(parent, msgDrainAck)

	send(parent, msgFree, idBody(int64(y.ID())))
	send(parent, msgRead, idBody(int64(y.ID())))
	if err := ended(done); err == nil || !strings.HasPrefix(err.Error(), "rank 0: ") ||
		!strings.Contains(err.Error(), "unknown store") {
		t.Fatalf("read of a freed store: %v, want rank 0's unknown store error", err)
	}
	if _, ok := rs.stores[y.ID()]; ok {
		t.Fatal("freed store still in the rank's table")
	}

	// An unknown tag ends the loop before the message behind it is read.
	rs, parent, done = start()
	send(parent, 99, nil)
	if err := ended(done); err == nil || err.Error() != "rank 0: unknown control message 99" {
		t.Fatalf("unknown tag: %v", err)
	}
	parent.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	if err := writeFrame(parent, msgStoreNew, encodeStoreNew(x)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("message behind a bad one: write %v, want it unread", err)
	}
	if len(rs.stores) != 0 {
		t.Fatalf("message behind a bad one executed: %d stores", len(rs.stores))
	}

	_, parent, done = start()
	parent.Close()
	if err := ended(done); err == nil || err.Error() != "rank 0: parent closed the control stream before shutdown" {
		t.Fatalf("EOF before shutdown: %v", err)
	}

	_, parent, done = start()
	send(parent, msgShutdown, nil)
	if err := ended(done); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
