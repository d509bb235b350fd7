// Package serve is a small multi-tenant front end over one Diffuse
// runtime: clients connect over a unix-domain socket, name a tenant, and
// submit the one named workload stream ("chain") to be run in a session
// of that tenant.
//
// Each tenant gets isolated core.Sessions and admission control on two
// channels. A submission runs on the goroutine of the connection that
// sent it: it takes one of its tenant's session lanes (TenantInflight of
// them), then one of the server's global in-flight tokens. A submission
// that finds QueueDepth others of its tenant already waiting for a lane
// is shed with a retryable error. All tenants share the runtime's
// fusion-plan memo and kernel cache, so identical streams from different
// tenants compile once; Server.Stats splits the plan-cache hits and
// misses per tenant.
//
// The wire protocol is deliberately small: after a JSON hello naming the
// tenant, the client sends length-prefixed JSON submit frames and reads
// one response frame per request, in order. The package exists for the
// benchmark of record's serve_chain workload; it has no binary of its own.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// ProtoVersion is the wire-protocol version carried in the hello frame;
// the server rejects clients speaking a different version. Version 2 has
// one op (submit), one workload (chain) and no element-type field, so a
// version-1 client is refused at hello rather than half-served: its
// float32 chain would otherwise run in float64.
const ProtoVersion = 2

// maxFrame bounds a single frame; a four-byte length prefix from a
// confused or malicious peer must not drive an allocation. Requests and
// responses are small; 16 MiB is generous.
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
	// Op selects the operation; "submit" is the only one.
	Op     string         `json:"op"`
	Submit *SubmitRequest `json:"submit,omitempty"`
}

// SubmitRequest asks the server to run one workload stream inside the
// tenant's session. Workloads are named, deterministic, and stateless:
// identical requests produce identical canonical task streams (and so
// identical result digests) regardless of which tenant submits them —
// that is what makes the shared plan cache effective and testable.
type SubmitRequest struct {
	// Workload names the stream; "chain" is the only one.
	Workload string `json:"workload"`
	// N is the problem size in elements.
	N int `json:"n"`
	// Iters is the iteration count of the workload's loop.
	Iters int `json:"iters"`
}

// Response answers one request frame.
type Response struct {
	OK bool `json:"ok"`
	// Error is the tenant-scoped failure message when OK is false.
	Error string `json:"error,omitempty"`
	// Retryable marks a load-shed rejection: QueueDepth of the tenant's
	// submissions were already waiting, nothing was executed, and the same
	// request may be retried after backoff.
	Retryable bool          `json:"retryable,omitempty"`
	Result    *SubmitResult `json:"result,omitempty"`
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
