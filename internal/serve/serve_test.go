package serve_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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

	snap, err := a.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
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
	if snap.ProgramsCached == 0 {
		t.Fatal("shared program cache is empty after compiled submissions")
	}
}

// TestQuotaIsolation: a tenant whose workload blows its memory quota gets
// a tenant-scoped over-quota error; a well-behaved tenant sharing the
// server concurrently stays bit-identical to its solo run, and the hog's
// next (small) request succeeds — nothing leaked, nothing crashed.
func TestQuotaIsolation(t *testing.T) {
	// 1 MiB quota: jacobi n=512 wants a 2 MiB f64 system matrix.
	s := startServer(t, serve.Config{Procs: 2, TenantQuota: 1 << 20, TenantInflight: 1, GlobalInflight: 2})
	big := serve.SubmitRequest{Workload: "jacobi", N: 512, Iters: 2}
	small := serve.SubmitRequest{Workload: "jacobi", N: 64, Iters: 3}
	wantSmall := soloDigest(t, 2, small)

	hog := dial(t, s, "hog")
	good := dial(t, s, "good")

	var wg sync.WaitGroup
	wg.Add(1)
	var goodErr error
	var goodDigest string
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			res, err := good.Submit(small)
			if err != nil {
				goodErr = err
				return
			}
			goodDigest = res.Digest
		}
	}()
	if _, err := hog.Submit(big); !serveclient.IsOverQuota(err) {
		t.Fatalf("hog want over-quota error, got %v", err)
	}
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("good tenant perturbed by hog: %v", goodErr)
	}
	if goodDigest != wantSmall {
		t.Fatalf("good tenant digest %s != solo %s", goodDigest, wantSmall)
	}

	// The hog's budget must be fully reclaimed: the same small workload
	// fits in 1 MiB and must now succeed for the hog too.
	res, err := hog.Submit(small)
	if err != nil {
		t.Fatalf("hog's small follow-up should succeed after reclaim: %v", err)
	}
	if res.Digest != wantSmall {
		t.Fatalf("hog follow-up digest %s != solo %s", res.Digest, wantSmall)
	}

	snap, err := good.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	hs := tenantStats(t, snap, "hog")
	if hs.OverQuota != 1 {
		t.Fatalf("hog over-quota count = %d, want 1 (%+v)", hs.OverQuota, hs)
	}
	if hs.QuotaUsed != 0 {
		t.Fatalf("hog still has %d bytes charged after reclaim", hs.QuotaUsed)
	}
	if gs := tenantStats(t, snap, "good"); gs.OverQuota != 0 || gs.Failed != 0 || gs.Completed != 4 {
		t.Fatalf("good tenant counters perturbed: %+v", gs)
	}
}

// TestLoadShed: flooding one tenant's bounded queue sheds with retryable
// errors scoped to that tenant, while another tenant keeps completing.
func TestLoadShed(t *testing.T) {
	s := startServer(t, serve.Config{
		Procs: 2, TenantInflight: 1, GlobalInflight: 1, QueueDepth: 1,
	})
	heavy := serve.SubmitRequest{Workload: "stencil", N: 384, Iters: 32}
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

	snap, err := other.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	fs := tenantStats(t, snap, "flood")
	if fs.Rejected == 0 || fs.Rejected != int64(shed) {
		t.Fatalf("flood rejected = %d, want %d", fs.Rejected, shed)
	}
	if os := tenantStats(t, snap, "other"); os.Rejected != 0 {
		t.Fatalf("shed leaked onto the other tenant: %+v", os)
	}
}

// TestManyTenantStress drives many tenants concurrently — mixed workloads,
// one tenant over quota, several connections per tenant — and checks every
// successful digest against the solo oracle. Run under -race this is the
// isolation stress test the issue asks for.
func TestManyTenantStress(t *testing.T) {
	s := startServer(t, serve.Config{
		Procs: 2, TenantQuota: 8 << 20, TenantInflight: 2, GlobalInflight: 4, QueueDepth: 32,
	})
	reqs := []serve.SubmitRequest{
		{Workload: "chain", N: 1024, Iters: 4},
		{Workload: "stencil", N: 48, Iters: 3},
		{Workload: "jacobi", N: 96, Iters: 2},
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		want[i] = soloDigest(t, 2, r)
	}
	over := serve.SubmitRequest{Workload: "jacobi", N: 1200, Iters: 1} // ~11.5 MiB matrix > 8 MiB quota

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
					if tn == 0 && i == 1 {
						// Tenant 0 interleaves an over-quota request.
						if _, err := c.Submit(over); !serveclient.IsOverQuota(err) {
							t.Errorf("%s: want over-quota, got %v", name, err)
						}
						continue
					}
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

	snap, err := dial(t, s, "observer").Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, ts := range snap.Tenants {
		if ts.Admitted != ts.Completed+ts.OverQuota+ts.Failed {
			t.Errorf("tenant %s: admitted %d != completed %d + overquota %d + failed %d",
				ts.Tenant, ts.Admitted, ts.Completed, ts.OverQuota, ts.Failed)
		}
		if ts.QuotaUsed != 0 {
			t.Errorf("tenant %s: %d bytes still charged after drain", ts.Tenant, ts.QuotaUsed)
		}
	}
}

// TestTCPTransport runs the shared-cache smoke over a TCP listener: the
// listen transport must not change behaviour.
func TestTCPTransport(t *testing.T) {
	s := startServer(t, serve.Config{Transport: "tcp", Procs: 2})
	req := serve.SubmitRequest{Workload: "chain", N: 512, Iters: 3}
	want := soloDigest(t, 2, req)
	c := dial(t, s, "tcp-tenant")
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	res, err := c.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Digest != want {
		t.Fatalf("tcp digest %s != solo %s", res.Digest, want)
	}
}

// TestTenantCostsNoGoroutines: a tenant is a quota, a channel of session
// lanes and a waiting count; a submission runs on its connection's
// goroutine. Opening connections under many tenant names and closing them
// again leaves the server's goroutine count where it started.
func TestTenantCostsNoGoroutines(t *testing.T) {
	s := startServer(t, serve.Config{Procs: 2, TenantInflight: 2})
	base := runtime.NumGoroutine()
	clients := make([]*serveclient.Client, 32)
	for i := range clients {
		clients[i] = dial(t, s, fmt.Sprintf("idle-%d", i))
	}
	snap, err := clients[0].Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(snap.Tenants) != len(clients) {
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
		{Workload: "stencil", N: 1 << 20, Iters: 1},
		{Workload: "chain", N: 16, Iters: 1, DType: "f16"},
	} {
		_, err := c.Submit(req)
		if err == nil {
			t.Errorf("submit %+v: want validation error", req)
			continue
		}
		if serveclient.IsRetryable(err) || serveclient.IsOverQuota(err) {
			t.Errorf("submit %+v: misclassified error %v", req, err)
		}
	}
	// The connection and tenant must still work afterwards.
	if _, err := c.Submit(serve.SubmitRequest{Workload: "chain", N: 64, Iters: 1}); err != nil {
		t.Fatalf("valid submit after rejects: %v", err)
	}
}
