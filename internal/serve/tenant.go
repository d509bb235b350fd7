package serve

import (
	"fmt"
	"sync/atomic"

	"diffuse/cunum"
	"diffuse/internal/core"
)

// tenant is one tenant's isolation domain: TenantInflight session lanes.
// A lane is a private core.Session (sessions are single-goroutine; the
// runtime underneath is shared by all tenants); a submission borrows one
// on the goroutine of the connection that sent it, so a tenant owns no
// goroutines of its own.
type tenant struct {
	name string
	srv  *Server

	workers []*worker    // every lane, for stats
	lanes   chan *worker // the idle lanes
	waiting atomic.Int64 // submissions blocked on an empty lanes

	admitted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

// worker is one session lane of a tenant: a session and its cunum context.
type worker struct {
	sess *core.Session
	ctx  *cunum.Context
}

func newTenant(s *Server, name string) *tenant {
	t := &tenant{
		name:  name,
		srv:   s,
		lanes: make(chan *worker, s.cfg.TenantInflight),
	}
	for i := 0; i < s.cfg.TenantInflight; i++ {
		sess := s.rt.NewSession()
		w := &worker{sess: sess, ctx: cunum.NewSessionContext(sess)}
		t.workers = append(t.workers, w)
		t.lanes <- w
	}
	return t
}

// submit runs one request on the calling goroutine: take a lane of the
// tenant, then a global in-flight token, execute, give both back. A
// request that finds QueueDepth others of its tenant already waiting for
// a lane is shed with a retryable error instead of waiting: backpressure
// is the client's job.
func (t *tenant) submit(req SubmitRequest) Response {
	var w *worker
	select {
	case w = <-t.lanes:
	default:
		if t.waiting.Add(1) > int64(t.srv.cfg.QueueDepth) {
			t.waiting.Add(-1)
			t.rejected.Add(1)
			return Response{
				Error:     fmt.Sprintf("tenant %q: admission queue full (depth %d); retry after backoff", t.name, t.srv.cfg.QueueDepth),
				Retryable: true,
			}
		}
		w = <-t.lanes
		t.waiting.Add(-1)
	}
	defer func() { t.lanes <- w }()
	t.admitted.Add(1)
	t.srv.global <- struct{}{}
	defer func() { <-t.srv.global }()
	return t.process(w, req)
}

// process executes one admitted submission inside the lane's session.
// Failures are tenant-scoped: the session's buffered window is aborted,
// so the dead half of the stream never reaches the executor.
func (t *tenant) process(w *worker, req SubmitRequest) Response {
	res, err := RunWorkload(w.ctx, req)
	if err != nil {
		w.sess.Abort()
		t.failed.Add(1)
		return Response{Error: fmt.Sprintf("tenant %q: %v", t.name, err)}
	}
	w.sess.Flush()
	t.completed.Add(1)
	return Response{OK: true, Result: res}
}

// stats snapshots this tenant's counters, summing plan-cache attribution
// over its lane sessions.
func (t *tenant) stats() TenantStats {
	ts := TenantStats{
		Tenant:    t.name,
		Admitted:  t.admitted.Load(),
		Rejected:  t.rejected.Load(),
		Completed: t.completed.Load(),
		Failed:    t.failed.Load(),
	}
	for _, w := range t.workers {
		cs := w.sess.CacheStats()
		ts.PlanHits += cs.PlanHits
		ts.PlanMisses += cs.PlanMisses
		ts.ProgramHits += cs.ProgramHits
		ts.ProgramMisses += cs.ProgramMisses
	}
	return ts
}
