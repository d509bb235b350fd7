// Command diffuse-serve is Diffuse's multi-tenant service front end: a
// long-running process multiplexing many tenants onto one runtime, with
// admission control with load shedding and a compiled-plan cache shared
// across tenants.
//
//	diffuse-serve                                  # unix socket, auto path
//	diffuse-serve -transport tcp -addr 127.0.0.1:7432
//	diffuse-serve -tenant-inflight 2 -global-inflight 8
//
// The listen address is printed on startup ("listening on ..."); clients
// (the serveclient package, examples/serve, diffuse-trace -serve) dial it
// with the matching -transport. SIGINT or SIGTERM shuts down cleanly:
// in-flight and waiting submissions finish, final per-tenant counters
// print, and the process exits 0. See docs/SERVING.md for the operator guide.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"diffuse/internal/serve"
)

func main() {
	var (
		transport = flag.String("transport", "unix", "listen transport: unix | tcp")
		addr      = flag.String("addr", "", "listen address (socket path or host:port); empty picks one")
		procs     = flag.Int("procs", 4, "runtime launch width (point tasks per index task)")
		tenantIn  = flag.Int("tenant-inflight", 1, "concurrent submissions per tenant")
		globalIn  = flag.Int("global-inflight", 4, "concurrent submissions across all tenants")
		queue     = flag.Int("queue-depth", 16, "per-tenant bound on submissions waiting for a session (one more sheds with a retryable error)")
	)
	flag.Parse()

	s, err := serve.New(serve.Config{
		Transport:      *transport,
		Addr:           *addr,
		Procs:          *procs,
		TenantInflight: *tenantIn,
		GlobalInflight: *globalIn,
		QueueDepth:     *queue,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("diffuse-serve: listening on %s %s\n", s.Transport(), s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()

	select {
	case err := <-done:
		// Accept loop died without Close: a real failure.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-sig:
		fmt.Println("diffuse-serve: shutting down")
		snap := s.Stats()
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := <-done; err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, ts := range snap.Tenants {
			fmt.Printf("  tenant %-16s admitted %d rejected %d completed %d failed %d plan hits/misses %d/%d\n",
				ts.Tenant, ts.Admitted, ts.Rejected, ts.Completed, ts.Failed, ts.PlanHits, ts.PlanMisses)
		}
		fmt.Println("diffuse-serve: bye")
	}
}
