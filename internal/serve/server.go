package serve

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"diffuse/internal/core"
)

// Config sizes a serve front end. Zero values mean defaults.
type Config struct {
	// Transport selects the listen transport: "unix" (the default when
	// empty) or "tcp".
	Transport string
	// Addr is the listen address (a socket path for unix, host:port for
	// tcp). Empty picks one automatically: a socket in a fresh temp
	// directory, or a kernel-assigned loopback port.
	Addr string
	// Procs is the runtime's launch width (default 4).
	Procs int
	// TenantInflight is the number of submissions one tenant may have
	// executing concurrently — its session-lane count (default 1).
	TenantInflight int
	// GlobalInflight caps submissions executing concurrently across all
	// tenants (default 4).
	GlobalInflight int
	// QueueDepth bounds how many of one tenant's submissions may wait
	// for a session lane; a submission that finds QueueDepth others
	// waiting is shed with a retryable error (default 16).
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.TenantInflight <= 0 {
		c.TenantInflight = 1
	}
	if c.GlobalInflight <= 0 {
		c.GlobalInflight = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	return c
}

// Server multiplexes tenants onto one Diffuse runtime. Create with New,
// run with Serve, stop with Close.
type Server struct {
	cfg     Config
	rt      *core.Runtime
	ln      net.Listener
	cleanup func()
	global  chan struct{} // global in-flight tokens (capacity GlobalInflight)

	mu      sync.Mutex
	tenants map[string]*tenant
	conns   map[net.Conn]struct{}
	closed  bool

	connWG sync.WaitGroup
}

// New opens the listener and starts the shared runtime. The server is
// accepting as soon as New returns (Serve only runs the accept loop), so
// callers may read Addr and dial immediately.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var err error
	if cfg.Transport, err = Network(cfg.Transport); err != nil {
		return nil, err
	}
	addr := cfg.Addr
	cleanup := func() {}
	if addr == "" {
		switch cfg.Transport {
		case "unix":
			dir, err := os.MkdirTemp("", "diffuse-serve-")
			if err != nil {
				return nil, fmt.Errorf("serve: socket dir: %w", err)
			}
			addr = filepath.Join(dir, "serve.sock")
			cleanup = func() { os.RemoveAll(dir) }
		default:
			addr = "127.0.0.1:0"
		}
	}
	ln, err := net.Listen(cfg.Transport, addr)
	if err != nil {
		cleanup()
		return nil, fmt.Errorf("serve: listen %s %s: %w", cfg.Transport, addr, err)
	}
	s := &Server{
		cfg:     cfg,
		rt:      core.New(core.DefaultConfig(cfg.Procs)),
		ln:      ln,
		cleanup: cleanup,
		global:  make(chan struct{}, cfg.GlobalInflight),
		tenants: map[string]*tenant{},
		conns:   map[net.Conn]struct{}{},
	}
	return s, nil
}

// Addr returns the listen address (socket path or host:port) clients dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Transport returns the transport selector clients must dial with.
func (s *Server) Transport() string { return s.cfg.Transport }

// Runtime exposes the shared runtime (tests and stats).
func (s *Server) Runtime() *core.Runtime { return s.rt }

// Serve runs the accept loop until Close; it returns nil on a clean
// shutdown and the accept error otherwise.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			s.handle(conn)
		}()
	}
}

// Close shuts the server down: stop accepting, sever connections, and wait
// for every connection goroutine — each finishes the submission it is
// running before it notices. Safe to call once; concurrent with Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.connWG.Wait()
	s.cleanup()
	return s.rt.Close()
}

// Stats snapshots the server-wide accounting.
func (s *Server) Stats() *StatsSnapshot {
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	snap := &StatsSnapshot{
		ProgramsCached: s.rt.Legion().ProgramsCached(),
		TenantInflight: s.cfg.TenantInflight,
		GlobalInflight: s.cfg.GlobalInflight,
		QueueDepth:     s.cfg.QueueDepth,
	}
	for _, t := range tenants {
		snap.Tenants = append(snap.Tenants, t.stats())
	}
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant })
	return snap
}

// tenantFor returns (creating on first sight) the tenant's isolation
// domain. Returns an error after shutdown began, so a hello racing Close
// is refused rather than served.
func (s *Server) tenantFor(name string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("serve: server is shutting down")
	}
	t, ok := s.tenants[name]
	if !ok {
		t = newTenant(s, name)
		s.tenants[name] = t
	}
	return t, nil
}

// handle speaks the protocol on one connection: hello, then a strict
// request/response sequence. All submissions on a connection are accounted
// to the hello's tenant and run on this goroutine.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var hello Hello
	if err := ReadFrame(conn, &hello); err != nil {
		return
	}
	if hello.Proto != ProtoVersion {
		WriteFrame(conn, HelloReply{Error: fmt.Sprintf("serve: protocol version %d, want %d", hello.Proto, ProtoVersion)})
		return
	}
	if hello.Tenant == "" || len(hello.Tenant) > 64 {
		WriteFrame(conn, HelloReply{Error: "serve: tenant name must be 1..64 bytes"})
		return
	}
	t, err := s.tenantFor(hello.Tenant)
	if err != nil {
		WriteFrame(conn, HelloReply{Error: err.Error()})
		return
	}
	if err := WriteFrame(conn, HelloReply{OK: true}); err != nil {
		return
	}
	for {
		var req Request
		if err := ReadFrame(conn, &req); err != nil {
			return // EOF or severed connection: the client is done
		}
		var resp Response
		switch req.Op {
		case "ping":
			resp = Response{OK: true}
		case "stats":
			resp = Response{OK: true, Stats: s.Stats()}
		case "submit":
			if req.Submit == nil {
				resp = Response{Error: "serve: submit request missing body"}
			} else {
				resp = t.submit(*req.Submit)
			}
		default:
			resp = Response{Error: fmt.Sprintf("serve: unknown op %q", req.Op)}
		}
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// Network resolves a transport selector to the net package's network
// name: "unix" (also for the empty selector) or "tcp". Servers listen and
// clients dial through it, so both sides accept the same selectors.
func Network(transport string) (string, error) {
	switch transport {
	case "", "unix":
		return "unix", nil
	case "tcp":
		return "tcp", nil
	}
	return "", fmt.Errorf("serve: unknown transport %q (want unix or tcp)", transport)
}
