// Package serve implements Diffuse's multi-tenant service mode: a
// long-running front end that multiplexes many tenants onto one runtime.
//
// Each tenant gets isolated core.Sessions and admission control on two
// channels. A submission runs on the goroutine of the connection that
// sent it: it takes one of its tenant's session lanes (TenantInflight of
// them), then one of the server's global in-flight tokens. A submission
// that finds QueueDepth others of its tenant already waiting for a lane
// is shed with a retryable error. All tenants share the runtime's
// compiled-plan caches — the fusion-plan memo keyed on canonical window
// form and legion's kernel cache (compiled forms and codegen programs)
// keyed on kernel structure — so
// identical streams from different tenants compile once; per-tenant
// hit/miss counters prove the sharing. See docs/SERVING.md for the
// operator guide.
//
// The wire protocol is deliberately small: after a JSON hello naming the
// tenant, the client sends length-prefixed JSON request frames and reads
// one response frame per request, in order, over a unix-domain socket or
// TCP.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// ProtoVersion is the wire-protocol version carried in the hello frame;
// the server rejects clients speaking a different version.
const ProtoVersion = 1

// maxFrame bounds a single frame; a four-byte length prefix from a
// confused or malicious peer must not drive an allocation. Requests and
// stats snapshots are small; 16 MiB is generous.
const maxFrame = 16 << 20

// WriteFrame marshals v and writes it as one length-prefixed JSON frame.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("serve: marshal frame: %w", err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte cap", len(body), maxFrame)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed JSON frame into v.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("serve: frame length %d exceeds the %d-byte cap", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("serve: decode frame: %w", err)
	}
	return nil
}

// Hello opens every connection: it names the tenant all submissions on
// this connection are accounted to.
type Hello struct {
	Proto  int    `json:"proto"`
	Tenant string `json:"tenant"`
}

// HelloReply acknowledges (or rejects) a hello.
type HelloReply struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Request is one client request frame.
type Request struct {
	// Op selects the operation: "submit", "stats", or "ping".
	Op     string         `json:"op"`
	Submit *SubmitRequest `json:"submit,omitempty"`
}

// SubmitRequest asks the server to run one workload stream inside the
// tenant's session. Workloads are named, deterministic, and stateless:
// identical requests produce identical canonical task streams (and so
// identical result digests) regardless of which tenant submits them —
// that is what makes the shared plan cache effective and testable.
type SubmitRequest struct {
	// Workload names the stream: "chain", "stencil", or "jacobi".
	Workload string `json:"workload"`
	// N is the problem size (elements for chain, grid side for stencil,
	// matrix side for jacobi).
	N int `json:"n"`
	// Iters is the iteration count of the workload's loop.
	Iters int `json:"iters"`
	// DType selects the element type: "" or "f64", or "f32".
	DType string `json:"dtype,omitempty"`
}

// Response answers one request frame.
type Response struct {
	OK bool `json:"ok"`
	// Error is the tenant-scoped failure message when OK is false.
	Error string `json:"error,omitempty"`
	// Retryable marks a load-shed rejection: QueueDepth of the tenant's
	// submissions were already waiting, nothing was executed, and the same
	// request may be retried after backoff.
	Retryable bool           `json:"retryable,omitempty"`
	Result    *SubmitResult  `json:"result,omitempty"`
	Stats     *StatsSnapshot `json:"stats,omitempty"`
}

// SubmitResult carries a completed submission's outcome.
type SubmitResult struct {
	// Digest is an FNV-1a hash over the bit patterns of the workload's
	// result values — the bit-identity token isolation tests compare
	// against solo runs.
	Digest string `json:"digest"`
	// Elems is the number of result elements digested.
	Elems int `json:"elems"`
}

// TenantStats is one tenant's accounting snapshot.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Admission counters: Admitted took a session lane; Rejected were shed
	// because QueueDepth others were already waiting for one.
	// Completed/Failed partition the admitted submissions that
	// have finished.
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Batched is always zero: submissions are never batched.
	//
	// Deprecated: kept only because the frozen benchmark reads it.
	Batched int64 `json:"batched"`
	// Shared-plan-cache counters, split per tenant: PlanHits/PlanMisses
	// are fusion-plan memo lookups (canonical window form); ProgramHits/
	// ProgramMisses are kernel-cache lookups (kernel structure) made
	// during the tenant's window drains. A tenant with hits > 0 and
	// misses == 0 is riding plans other tenants' misses populated.
	PlanHits      int64 `json:"plan_hits"`
	PlanMisses    int64 `json:"plan_misses"`
	ProgramHits   int64 `json:"program_hits"`
	ProgramMisses int64 `json:"program_misses"`
}

// StatsSnapshot is the server-wide accounting snapshot.
type StatsSnapshot struct {
	// Tenants holds one entry per tenant seen, sorted by name.
	Tenants []TenantStats `json:"tenants"`
	// ProgramsCached is the number of distinct compiled programs resident
	// in the runtime's shared kernel cache.
	ProgramsCached int `json:"programs_cached"`
	// Admission-control configuration echo.
	TenantInflight int `json:"tenant_inflight"`
	GlobalInflight int `json:"global_inflight"`
	QueueDepth     int `json:"queue_depth"`
}
