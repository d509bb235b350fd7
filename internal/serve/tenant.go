package serve

import (
	"errors"
	"fmt"
	"sync/atomic"

	"diffuse/cunum"
	"diffuse/internal/core"
)

// tenant is one tenant's isolation domain: a shared memory quota and
// TenantInflight session lanes. A lane is a private core.Session
// (sessions are single-goroutine; the runtime underneath is shared by all
// tenants); a submission borrows one on the goroutine of the connection
// that sent it, so a tenant owns no goroutines of its own.
type tenant struct {
	name  string
	srv   *Server
	quota *core.Quota

	workers []*worker    // every lane, for stats
	lanes   chan *worker // the idle lanes
	waiting atomic.Int64 // submissions blocked on an empty lanes

	admitted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	overQuota atomic.Int64
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
		quota: core.NewQuota(s.cfg.TenantQuota),
		lanes: make(chan *worker, s.cfg.TenantInflight),
	}
	for i := 0; i < s.cfg.TenantInflight; i++ {
		sess := s.rt.NewSession()
		sess.SetQuota(t.quota)
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
// Failures are tenant-scoped: the session's buffered window is aborted and
// every store still charged to the tenant's quota is reclaimed, so the
// next request — this tenant's or anyone else's — starts clean.
func (t *tenant) process(w *worker, req SubmitRequest) Response {
	res, err := RunWorkload(w.ctx, req)
	if err != nil {
		w.sess.Abort()
		w.sess.ReclaimQuota()
		var qe *core.QuotaError
		if errors.As(err, &qe) {
			t.overQuota.Add(1)
			return Response{Error: fmt.Sprintf("tenant %q: %v", t.name, err), OverQuota: true}
		}
		t.failed.Add(1)
		return Response{Error: fmt.Sprintf("tenant %q: %v", t.name, err)}
	}
	// Success: the workload freed everything it allocated, so the reclaim
	// is a bookkeeping prune — but run it anyway, so a leak in one request
	// cannot accumulate into a quota squeeze across requests.
	w.sess.Flush()
	w.sess.ReclaimQuota()
	t.completed.Add(1)
	return Response{OK: true, Result: res}
}

// stats snapshots this tenant's counters, summing plan-cache attribution
// over its lane sessions.
func (t *tenant) stats() TenantStats {
	ts := TenantStats{
		Tenant:     t.name,
		Admitted:   t.admitted.Load(),
		Rejected:   t.rejected.Load(),
		Completed:  t.completed.Load(),
		OverQuota:  t.overQuota.Load(),
		Failed:     t.failed.Load(),
		QuotaUsed:  t.quota.Used(),
		QuotaPeak:  t.quota.Peak(),
		QuotaLimit: t.quota.Limit(),
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
