package serve_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/serve"
	"diffuse/internal/serve/serveclient"
)

// startServer spins up a server with its accept loop running and returns
// it with a cleanup-registered shutdown.
func startServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve loop: %v", err)
		}
	})
	return s
}

func dial(t *testing.T, s *serve.Server, tenant string) *serveclient.Client {
	t.Helper()
	c, err := serveclient.Dial(s.Transport(), s.Addr(), tenant)
	if err != nil {
		t.Fatalf("dial %s: %v", tenant, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func tenantStats(t *testing.T, snap *serve.StatsSnapshot, name string) serve.TenantStats {
	t.Helper()
	for _, ts := range snap.Tenants {
		if ts.Tenant == name {
			return ts
		}
	}
	t.Fatalf("tenant %q missing from stats %+v", name, snap.Tenants)
	return serve.TenantStats{}
}

// soloDigest runs the workload on a private runtime — the bit-identity
// oracle served results must match.
func soloDigest(t *testing.T, procs int, req serve.SubmitRequest) string {
	t.Helper()
	res, err := serve.RunWorkloadLocal(procs, req)
	if err != nil {
		t.Fatalf("solo %s: %v", req.Workload, err)
	}
	return res.Digest
}

// TestSharedPlanCache proves the tentpole's sharing claim: a second tenant
// submitting the stream a first tenant already ran gets plan-cache hits
// without a single plan miss of its own beyond the warm path, and both
// see results bit-identical to a solo run.
func TestSharedPlanCache(t *testing.T) {
	s := startServer(t, serve.Config{Procs: 2})
	req := serve.SubmitRequest{Workload: "chain", N: 2048, Iters: 6}
	want := soloDigest(t, 2, req)

	a := dial(t, s, "alice")
	resA, err := a.Submit(req)
	if err != nil {
		t.Fatalf("alice submit: %v", err)
	}
	b := dial(t, s, "bob")
	resB, err := b.Submit(req)
	if err != nil {
		t.Fatalf("bob submit: %v", err)
	}
	if resA.Digest != want || resB.Digest != want {
		t.Fatalf("digests diverge: alice %s bob %s solo %s", resA.Digest, resB.Digest, want)
	}

	snap := s.Stats()
	alice, bob := tenantStats(t, snap, "alice"), tenantStats(t, snap, "bob")
	if alice.PlanMisses == 0 {
		t.Fatalf("alice (first submitter) should have plan misses, got %+v", alice)
	}
	if bob.PlanHits == 0 {
		t.Fatalf("bob should hit plans alice populated, got %+v", bob)
	}
	if bob.PlanMisses != 0 {
		t.Fatalf("bob re-running alice's exact stream should miss nothing, got %+v", bob)
	}
	if s.Runtime().Legion().ProgramsCached() == 0 {
		t.Fatal("shared program cache is empty after compiled submissions")
	}
}

// TestRunWorkloadFreesEverything: a completed workload leaves no store
// alive — every store its emitted stream touched is dead once RunWorkload
// has returned and the session is flushed. The chain runs in float64, the
// only element type a serve stream has.
func TestRunWorkloadFreesEverything(t *testing.T) {
	for _, fused := range []bool{true, false} {
		t.Run(fmt.Sprintf("chain/f64/fused=%v", fused), func(t *testing.T) {
			cfg := core.DefaultConfig(2)
			cfg.Enabled = fused
			rt := core.New(cfg)
			defer rt.Close()
			seen := map[*ir.Store]bool{}
			rt.Legion().Trace = func(tk *ir.Task) {
				for _, a := range tk.Args {
					seen[a.Store] = true
				}
			}
			ctx := cunum.NewContext(rt)
			req := serve.SubmitRequest{Workload: "chain", N: 16, Iters: 3}
			if _, err := serve.RunWorkload(ctx, req); err != nil {
				t.Fatalf("run: %v", err)
			}
			ctx.Flush()
			if len(seen) == 0 {
				t.Fatal("trace saw no stores")
			}
			for st := range seen {
				if !st.Dead() {
					t.Errorf("%v still live after the workload returned (%d stores traced)", st, len(seen))
				}
			}
		})
	}
}

// TestLoadShed: flooding one tenant's bounded queue sheds with retryable
// errors scoped to that tenant, while another tenant keeps completing.
func TestLoadShed(t *testing.T) {
	s := startServer(t, serve.Config{
		Procs: 2, TenantInflight: 1, GlobalInflight: 1, QueueDepth: 1,
	})
	heavy := serve.SubmitRequest{Workload: "chain", N: 1 << 20, Iters: 32}
	light := serve.SubmitRequest{Workload: "chain", N: 512, Iters: 2}
	wantLight := soloDigest(t, 2, light)

	// 6 concurrent connections of one tenant against queue depth 1: at
	// most 1 waiting + 1 executing at a time, so some must be shed. Dial
	// everyone first and release them together so the submissions overlap.
	conns := make([]*serveclient.Client, 6)
	for i := range conns {
		c, err := serveclient.Dial(s.Transport(), s.Addr(), "flood")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		conns[i] = c
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var shed, okCount int
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *serveclient.Client) {
			defer wg.Done()
			<-start
			_, err := c.Submit(heavy)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				okCount++
			case serveclient.IsRetryable(err):
				shed++
			default:
				t.Errorf("flood conn %d: unexpected error %v", i, err)
			}
		}(i, c)
	}
	close(start)
	wg.Wait()
	if shed == 0 {
		t.Fatalf("queue depth 1 with 6 concurrent submissions shed nothing (ok=%d)", okCount)
	}
	if okCount == 0 {
		t.Fatal("every submission was shed; admission control should still serve the queue")
	}

	// The shed tenant's rejections must not have cost the other tenant
	// anything: a fresh tenant completes and matches solo.
	other := dial(t, s, "other")
	res, err := other.Submit(light)
	if err != nil {
		t.Fatalf("other tenant after flood: %v", err)
	}
	if res.Digest != wantLight {
		t.Fatalf("other tenant digest %s != solo %s", res.Digest, wantLight)
	}

	snap := s.Stats()
	fs := tenantStats(t, snap, "flood")
	if fs.Rejected == 0 || fs.Rejected != int64(shed) {
		t.Fatalf("flood rejected = %d, want %d", fs.Rejected, shed)
	}
	if os := tenantStats(t, snap, "other"); os.Rejected != 0 {
		t.Fatalf("shed leaked onto the other tenant: %+v", os)
	}
}

// TestManyTenantStress drives many tenants concurrently — chains of mixed
// sizes, several connections per tenant — and checks every
// successful digest against the solo oracle. Run under -race this is the
// isolation stress test the issue asks for.
func TestManyTenantStress(t *testing.T) {
	s := startServer(t, serve.Config{
		Procs: 2, TenantInflight: 2, GlobalInflight: 4, QueueDepth: 32,
	})
	reqs := []serve.SubmitRequest{
		{Workload: "chain", N: 1024, Iters: 4},
		{Workload: "chain", N: 2304, Iters: 3},
		{Workload: "chain", N: 96, Iters: 2},
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		want[i] = soloDigest(t, 2, r)
	}

	var wg sync.WaitGroup
	for tn := 0; tn < 6; tn++ {
		for conn := 0; conn < 2; conn++ {
			wg.Add(1)
			go func(tn, conn int) {
				defer wg.Done()
				name := fmt.Sprintf("tenant-%d", tn)
				c, err := serveclient.Dial(s.Transport(), s.Addr(), name)
				if err != nil {
					t.Errorf("%s: dial: %v", name, err)
					return
				}
				defer c.Close()
				for i := 0; i < 3; i++ {
					k := (tn + conn + i) % len(reqs)
					res, err := c.Submit(reqs[k])
					if serveclient.IsRetryable(err) {
						continue // shed under load is legitimate
					}
					if err != nil {
						t.Errorf("%s: submit %s: %v", name, reqs[k].Workload, err)
						return
					}
					if res.Digest != want[k] {
						t.Errorf("%s: %s digest %s != solo %s", name, reqs[k].Workload, res.Digest, want[k])
					}
				}
			}(tn, conn)
		}
	}
	wg.Wait()

	for _, ts := range s.Stats().Tenants {
		if ts.Admitted != ts.Completed+ts.Failed {
			t.Errorf("tenant %s: admitted %d != completed %d + failed %d",
				ts.Tenant, ts.Admitted, ts.Completed, ts.Failed)
		}
	}
}

// TestTenantCostsNoGoroutines: a tenant is a channel of session lanes and
// a waiting count; a submission runs on its connection's
// goroutine. Opening connections under many tenant names and closing them
// again leaves the server's goroutine count where it started.
func TestTenantCostsNoGoroutines(t *testing.T) {
	s := startServer(t, serve.Config{Procs: 2, TenantInflight: 2})
	base := runtime.NumGoroutine()
	clients := make([]*serveclient.Client, 32)
	for i := range clients {
		clients[i] = dial(t, s, fmt.Sprintf("idle-%d", i))
	}
	if snap := s.Stats(); len(snap.Tenants) != len(clients) {
		t.Fatalf("%d tenants registered, want %d", len(snap.Tenants), len(clients))
	}
	for _, c := range clients {
		c.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with every connection closed, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBadRequests: validation failures are clean tenant-scoped errors.
func TestBadRequests(t *testing.T) {
	s := startServer(t, serve.Config{Procs: 2})
	c := dial(t, s, "fuzz")
	for _, req := range []serve.SubmitRequest{
		{Workload: "nope", N: 16, Iters: 1},
		{Workload: "chain", N: 0, Iters: 1},
		{Workload: "chain", N: 16, Iters: 0},
		{Workload: "chain", N: 1<<22 + 1, Iters: 1},
		{Workload: "stencil", N: 16, Iters: 1},
	} {
		_, err := c.Submit(req)
		if err == nil {
			t.Errorf("submit %+v: want validation error", req)
			continue
		}
		if serveclient.IsRetryable(err) {
			t.Errorf("submit %+v: misclassified error %v", req, err)
		}
	}
	// The connection and tenant must still work afterwards.
	if _, err := c.Submit(serve.SubmitRequest{Workload: "chain", N: 64, Iters: 1}); err != nil {
		t.Fatalf("valid submit after rejects: %v", err)
	}
}

// TestHelloRefusals: a hello at another protocol version and a tenant
// name outside 1..64 bytes are refused before any request is read, a
// protocol-2 connection is refused the ops version 2 dropped, and both
// ends refuse a transport other than unix, naming it.
func TestHelloRefusals(t *testing.T) {
	s := startServer(t, serve.Config{Procs: 2})

	conn, err := net.Dial("unix", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := serve.WriteFrame(conn, serve.Hello{Proto: 1, Tenant: "old"}); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	var rep serve.HelloReply
	if err := serve.ReadFrame(conn, &rep); err != nil {
		t.Fatalf("read hello reply: %v", err)
	}
	if want := "protocol version 1, want 2"; rep.OK || !strings.Contains(rep.Error, want) {
		t.Fatalf("protocol-1 hello: reply %+v, want a refusal naming %q", rep, want)
	}

	for _, tenant := range []string{"", strings.Repeat("t", 65)} {
		c, err := serveclient.Dial(s.Transport(), s.Addr(), tenant)
		if err == nil {
			c.Close()
			t.Fatalf("hello with a %d-byte tenant was accepted", len(tenant))
		}
		if !strings.Contains(err.Error(), "tenant name must be 1..64 bytes") {
			t.Fatalf("%d-byte tenant: %v", len(tenant), err)
		}
	}
	dial(t, s, strings.Repeat("t", 64))

	conn2, err := net.Dial("unix", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn2.Close()
	if err := serve.WriteFrame(conn2, serve.Hello{Proto: serve.ProtoVersion, Tenant: "v2"}); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	if err := serve.ReadFrame(conn2, &rep); err != nil || !rep.OK {
		t.Fatalf("protocol-2 hello: reply %+v, err %v", rep, err)
	}
	for _, op := range []string{"stats", "ping"} {
		if err := serve.WriteFrame(conn2, serve.Request{Op: op}); err != nil {
			t.Fatalf("write %s: %v", op, err)
		}
		var resp serve.Response
		if err := serve.ReadFrame(conn2, &resp); err != nil {
			t.Fatalf("read %s response: %v", op, err)
		}
		if resp.OK || !strings.Contains(resp.Error, "unknown op") {
			t.Fatalf("%s op: response %+v, want an unknown-op error", op, resp)
		}
	}

	if srv, err := serve.New(serve.Config{Transport: "tcp"}); err == nil {
		srv.Close()
		t.Fatal("serve.New accepted transport tcp")
	} else if !strings.Contains(err.Error(), `unknown transport "tcp"`) {
		t.Fatalf("serve.New(tcp): %v", err)
	}
	if c, err := serveclient.Dial("tcp", "127.0.0.1:1", "x"); err == nil {
		c.Close()
		t.Fatal("serveclient.Dial accepted transport tcp")
	} else if !strings.Contains(err.Error(), `unknown transport "tcp"`) {
		t.Fatalf("serveclient.Dial(tcp): %v", err)
	}
}
