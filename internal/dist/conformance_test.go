package dist

// Transport conformance suite: the unix-socket peer mesh, and the
// fault-injection wrapper around it in passthrough mode, must satisfy the
// same contract, exercised here through one shared harness: full-mesh
// bootstrap, per-tag FIFO ordering, tag demultiplexing, prompt failure of
// receives blocked on a closed peer, and deadline errors that name the
// peer. The legion drain's correctness argument quantifies over exactly
// these properties.

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"diffuse/internal/dist/faultx"
)

// sendRecver is the surface under test — the subset of the transport the
// legion drain uses for peer traffic.
type sendRecver interface {
	Send(peer int, tag uint64, data []byte) error
	Recv(peer int, tag uint64) ([]byte, error)
}

// testMesh is one bootstrapped in-process mesh: raw holds the underlying
// *Transport per rank (for teardown and link severing), tx the possibly
// wrapped view the checks exercise.
type testMesh struct {
	raw []*Transport
	tx  []sendRecver
}

// buildMesh bootstraps a full ranks-wide mesh in a fresh rendezvous
// directory, with every rank's connectMesh running concurrently the way
// real rank processes do.
func buildMesh(t *testing.T, ranks int, timeout time.Duration) *testMesh {
	t.Helper()
	dir := t.TempDir()
	m := &testMesh{raw: make([]*Transport, ranks), tx: make([]sendRecver, ranks)}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for me := 0; me < ranks; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			m.raw[me], errs[me] = connectMesh(dir, me, ranks, timeout)
		}(me)
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connectMesh: %v", me, err)
		}
	}
	t.Cleanup(func() {
		for _, tx := range m.raw {
			tx.Close()
		}
	})
	for me := range m.tx {
		m.tx[me] = m.raw[me]
	}
	return m
}

// meshFactories enumerates the meshes under test. The faultx entry
// wraps the unix mesh in a fault-injection transport with an empty
// schedule: the wrapper must be a perfect passthrough when no rule
// matches, including error propagation from the inner transport.
var meshFactories = []struct {
	name  string
	build func(t *testing.T, ranks int, timeout time.Duration) *testMesh
}{
	{"unix", buildMesh},
	{"faultx", func(t *testing.T, ranks int, timeout time.Duration) *testMesh {
		m := buildMesh(t, ranks, timeout)
		for me := range m.tx {
			m.tx[me] = faultx.Wrap(m.raw[me], me, &faultx.Schedule{})
		}
		return m
	}},
}

// TestTransportConformance runs every conformance check against every
// mesh.
func TestTransportConformance(t *testing.T) {
	for _, f := range meshFactories {
		t.Run(f.name, func(t *testing.T) {
			t.Run("ConnectMesh", func(t *testing.T) { checkConnectMesh(t, f.build) })
			t.Run("FIFOOrdering", func(t *testing.T) { checkFIFOOrdering(t, f.build) })
			t.Run("TagDemux", func(t *testing.T) { checkTagDemux(t, f.build) })
			t.Run("CloseWhileBlocked", func(t *testing.T) { checkCloseWhileBlocked(t, f.build) })
			t.Run("RecvTimeout", func(t *testing.T) { checkRecvTimeout(t, f.build) })
		})
	}
}

// checkConnectMesh: a 3-rank bootstrap yields a full mesh where every
// ordered pair can exchange a message.
func checkConnectMesh(t *testing.T, build func(*testing.T, int, time.Duration) *testMesh) {
	const ranks = 3
	m := build(t, ranks, 5*time.Second)
	var wg sync.WaitGroup
	fail := make(chan error, ranks*ranks)
	for me := 0; me < ranks; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for peer := 0; peer < ranks; peer++ {
				if peer == me {
					continue
				}
				if err := m.tx[me].Send(peer, 7, []byte{byte(me)}); err != nil {
					fail <- fmt.Errorf("rank %d send to %d: %w", me, peer, err)
				}
			}
			for peer := 0; peer < ranks; peer++ {
				if peer == me {
					continue
				}
				data, err := m.tx[me].Recv(peer, 7)
				if err != nil {
					fail <- fmt.Errorf("rank %d recv from %d: %w", me, peer, err)
				} else if len(data) != 1 || data[0] != byte(peer) {
					fail <- fmt.Errorf("rank %d recv from %d: payload %v", me, peer, data)
				}
			}
		}(me)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
}

// checkFIFOOrdering: messages with equal tags between one (sender,
// receiver) pair arrive in send order.
func checkFIFOOrdering(t *testing.T, build func(*testing.T, int, time.Duration) *testMesh) {
	m := build(t, 2, 5*time.Second)
	const n = 200
	const tag = 42
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := m.tx[0].Send(1, tag, []byte{byte(i), byte(i >> 8)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		data, err := m.tx[1].Recv(0, tag)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(data[0]) | int(data[1])<<8; got != i {
			t.Fatalf("recv %d delivered message %d: FIFO order violated", i, got)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
}

// checkTagDemux: differently tagged messages are independent streams — a
// receiver draining tags in the reverse of send order still matches each
// tag to its own payload, and interleaved traffic on another tag does not
// disturb a blocked receive.
func checkTagDemux(t *testing.T, build func(*testing.T, int, time.Duration) *testMesh) {
	m := build(t, 2, 5*time.Second)
	const tags = 8
	for i := 0; i < tags; i++ {
		if err := m.tx[0].Send(1, uint64(i), []byte{byte(i * 3)}); err != nil {
			t.Fatalf("send tag %d: %v", i, err)
		}
	}
	for i := tags - 1; i >= 0; i-- {
		data, err := m.tx[1].Recv(0, uint64(i))
		if err != nil {
			t.Fatalf("recv tag %d: %v", i, err)
		}
		if len(data) != 1 || data[0] != byte(i*3) {
			t.Fatalf("tag %d delivered payload %v, want [%d]", i, data, i*3)
		}
	}
}

// checkCloseWhileBlocked: a receive blocked on a peer whose connection
// dies fails promptly (well before the transport deadline) with an error
// naming the peer — the property that turns a crashed rank into a clean
// diagnostic instead of a full deadline stall.
func checkCloseWhileBlocked(t *testing.T, build func(*testing.T, int, time.Duration) *testMesh) {
	m := build(t, 2, 30*time.Second)
	errc := make(chan error, 1)
	go func() {
		_, err := m.tx[1].Recv(0, 9)
		errc <- err
	}()
	// Give the receiver time to block, then kill the link from the far side.
	time.Sleep(50 * time.Millisecond)
	m.raw[0].CloseLink(1)
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("recv on a closed link returned data")
		}
		if !strings.Contains(err.Error(), "rank 0") {
			t.Fatalf("error does not name the dead peer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv still blocked 5s after the peer closed the link")
	}
}

// checkRecvTimeout: a receive with no matching message fails at the
// deadline with an error naming the peer and the timeout.
func checkRecvTimeout(t *testing.T, build func(*testing.T, int, time.Duration) *testMesh) {
	const timeout = 300 * time.Millisecond
	m := build(t, 2, timeout)
	start := time.Now()
	_, err := m.tx[1].Recv(0, 13)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("recv with no sender returned data")
	}
	if elapsed < timeout/2 || elapsed > 10*timeout {
		t.Fatalf("recv failed after %v, want ≈%v", elapsed, timeout)
	}
	if !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("timeout error does not name the peer: %v", err)
	}
}

// TestDialRetryPermanentFailsFast: an address no socket can have must
// not consume the retry budget — the regression dialRetry's error
// classification exists to prevent (a misconfigured launch used to spin
// on a hopeless dial for the full timeout before reporting).
func TestDialRetryPermanentFailsFast(t *testing.T) {
	start := time.Now()
	addr := filepath.Join(t.TempDir(), strings.Repeat("x", 200)+".sock") // longer than a socket path may be
	_, err := dialRetry(addr, 10*time.Second)
	if err == nil {
		t.Fatal("dial to an over-long socket path succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("permanent dial failure took %v — retried instead of failing fast", elapsed)
	}
	if !strings.Contains(err.Error(), "permanent failure") {
		t.Fatalf("error not classified permanent: %v", err)
	}
}

// TestDialRetryWaitsForListener: the listener coming up late is the
// expected bootstrap shape (every rank dials lower ranks that may not be
// listening yet), so the dial must retry through the missing socket file
// and succeed.
func TestDialRetryWaitsForListener(t *testing.T) {
	t.Run("unix", func(t *testing.T) {
		addr := filepath.Join(t.TempDir(), "late.sock")
		go func() {
			time.Sleep(150 * time.Millisecond)
			ln, err := net.Listen("unix", addr)
			if err != nil {
				return // the dialing side will report the failure
			}
			defer ln.Close()
			if conn, err := ln.Accept(); err == nil {
				conn.Close()
			}
		}()
		start := time.Now()
		conn, err := dialRetry(addr, 10*time.Second)
		if err != nil {
			t.Fatalf("dial through a late listener: %v", err)
		}
		conn.Close()
		if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
			t.Fatalf("dial succeeded in %v — before the listener existed?", elapsed)
		}
	})
}

// TestDialRetryTransientTimesOut: a listener that never comes up exhausts
// the deadline and reports the last transient error, not a permanent
// classification.
func TestDialRetryTransientTimesOut(t *testing.T) {
	addr := filepath.Join(t.TempDir(), "never.sock")
	start := time.Now()
	_, err := dialRetry(addr, 300*time.Millisecond)
	if err == nil {
		t.Fatal("dial to a never-listening address succeeded")
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("transient dial gave up after %v, before the deadline", elapsed)
	}
	if strings.Contains(err.Error(), "permanent") {
		t.Fatalf("transient failure misclassified permanent: %v", err)
	}
}
