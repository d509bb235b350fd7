// Package serveclient is the client half of package serve: it dials a
// serve front end's unix socket, performs the tenant hello, and submits
// workload streams. The serve tests and the benchmark of record's
// serve_chain workload drive the server through it.
package serveclient

import (
	"errors"
	"fmt"
	"net"
	"time"

	"diffuse/internal/serve"
)

// dialTimeout bounds the connection attempt; the server accepts before
// Serve even runs, so there is no listener-warmup to wait out.
const dialTimeout = 10 * time.Second

// RemoteError is a server-reported failure, scoped to this client's
// tenant.
type RemoteError struct {
	Msg string
	// Retryable marks a load-shed rejection (queue full, nothing ran).
	Retryable bool
}

func (e *RemoteError) Error() string { return e.Msg }

// IsRetryable reports whether err is a load-shed rejection the client may
// retry after backoff.
func IsRetryable(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Retryable
}

// Client is one tenant connection. A Client is not safe for concurrent
// use (the protocol is a strict request/response sequence); open one
// Client per submitting goroutine — they may all name the same tenant.
type Client struct {
	conn net.Conn
}

// Dial connects to a serve front end and performs the tenant hello.
// Transport is "unix" or empty, anything else is an error; addr is the
// server's Addr.
func Dial(transport, addr, tenant string) (*Client, error) {
	network, err := serve.Network(transport)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout(network, addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("serveclient: dial %s %s: %w", network, addr, err)
	}
	c := &Client{conn: conn}
	if err := serve.WriteFrame(conn, serve.Hello{Proto: serve.ProtoVersion, Tenant: tenant}); err != nil {
		conn.Close()
		return nil, err
	}
	var rep serve.HelloReply
	if err := serve.ReadFrame(conn, &rep); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serveclient: hello: %w", err)
	}
	if !rep.OK {
		conn.Close()
		return nil, &RemoteError{Msg: rep.Error}
	}
	return c, nil
}

// Close severs the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req serve.Request) (*serve.Response, error) {
	if err := serve.WriteFrame(c.conn, req); err != nil {
		return nil, err
	}
	var resp serve.Response
	if err := serve.ReadFrame(c.conn, &resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, &RemoteError{Msg: resp.Error, Retryable: resp.Retryable}
	}
	return &resp, nil
}

// Submit runs one workload stream in the tenant's session and returns its
// result digest. A *RemoteError return carries the tenant-scoped failure
// classification (IsRetryable).
func (c *Client) Submit(req serve.SubmitRequest) (*serve.SubmitResult, error) {
	resp, err := c.roundTrip(serve.Request{Op: "submit", Submit: &req})
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, errors.New("serveclient: submit response carried no result")
	}
	return resp.Result, nil
}
