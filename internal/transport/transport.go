// Package transport is the message-passing layer of the live serving
// runtime: a minimal request/response RPC fabric with per-request deadlines,
// bounded retries (exponential backoff + jitter), and connection reuse.
//
// Two implementations are provided:
//
//   - the channel transport (NewChan): in-process, deterministic, safe under
//     -race — the substrate for unit/integration tests and single-process
//     clusters;
//   - the TCP transport (NewTCP): length-prefixed binary frames over real
//     sockets with a per-address connection pool — the substrate for
//     multi-process deployments (cmd/hyperm-node).
//
// The transport moves opaque method/body pairs; message schemas live with
// their owners (internal/node encodes its RPCs with the Encoder/Decoder
// helpers from this package). Failure classification is part of the
// contract: transport-level faults (endpoint missing, connection broken,
// server stopped) are wrapped in ErrUnavailable and are retryable; handler
// errors come back as *RemoteError and are not; deadline expiry surfaces the
// context error and is not.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Request is one RPC: a method name and an opaque, already-encoded body.
type Request struct {
	Method string
	Body   []byte
}

// Response is the reply to a Request.
type Response struct {
	Body []byte
}

// Handler serves one request. Returning a non-nil error delivers a
// *RemoteError to the caller (the error's message crosses the wire; nothing
// else does).
type Handler func(ctx context.Context, req Request) (Response, error)

// Server is one served endpoint. Close stops accepting new requests and
// tears down the endpoint; in-flight handlers are abandoned (their callers
// see ErrUnavailable).
type Server interface {
	// Addr is the address clients pass to Call to reach this endpoint.
	// For the TCP transport this is the bound host:port (useful when
	// listening on ":0"); for the channel transport it echoes the name
	// registered at Serve time.
	Addr() string
	Close() error
}

// Transport hands out endpoints and performs calls against them.
// Implementations must be safe for concurrent use.
type Transport interface {
	// Serve registers a handler at addr and starts serving. The returned
	// Server's Addr reports the effective address.
	Serve(addr string, h Handler) (Server, error)
	// Call performs one request against addr, honoring ctx's deadline and
	// cancelation. It does not retry — wrap the transport in a Client for
	// retry semantics.
	Call(ctx context.Context, addr string, req Request) (Response, error)
	// Close tears down the transport: every server and pooled connection.
	Close() error
}

// ErrUnavailable marks transport-level faults that a retry may cure: the
// endpoint is not (yet) registered, the connection broke, or the server
// stopped mid-request. Test with errors.Is.
var ErrUnavailable = errors.New("transport: endpoint unavailable")

// ErrClosed is returned by operations on a transport that has been closed.
var ErrClosed = errors.New("transport: closed")

// RemoteError is a handler-returned error delivered across the transport.
// It is not retryable: the request was received and deliberately refused.
// Detail, when non-empty, is a short machine-readable classification token
// the handler attached with WithDetail (e.g. route.DetailLoopLimit) — the
// only structured part of a remote error that crosses the wire, letting
// clients count failure classes without parsing messages.
type RemoteError struct {
	Msg    string
	Detail string
}

func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// detailError carries a detail token alongside a handler error until the
// transport boundary extracts it with ErrorDetail.
type detailError struct {
	err    error
	detail string
}

func (e *detailError) Error() string { return e.err.Error() }
func (e *detailError) Unwrap() error { return e.err }

// WithDetail annotates a handler error with a machine-readable detail token.
// Transports deliver the token in the resulting *RemoteError's Detail field;
// errors.Is/As still see the original error on the server side.
func WithDetail(err error, detail string) error {
	if err == nil {
		return nil
	}
	return &detailError{err: err, detail: detail}
}

// ErrorDetail returns the detail token attached to err: the WithDetail
// annotation on the server side, or the Detail field of a received
// *RemoteError on the client side. Empty when unclassified.
func ErrorDetail(err error) string {
	var de *detailError
	if errors.As(err, &de) {
		return de.detail
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Detail
	}
	return ""
}

// Retryable reports whether err is worth retrying: true exactly for
// transport-level faults (ErrUnavailable). Remote application errors,
// deadline expiry, and cancelation are final.
func Retryable(err error) bool { return errors.Is(err, ErrUnavailable) }

// Policy configures a Client: the per-call deadline and the retry budget.
// The zero value gets sensible defaults from withDefaults.
type Policy struct {
	// MaxAttempts bounds the total tries per Call (first attempt included).
	// Default 3.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt. Default 2ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 100ms.
	MaxDelay time.Duration
	// Jitter spreads each backoff uniformly in [1-Jitter, 1+Jitter] to
	// de-synchronize competing clients. Default 0.2.
	Jitter float64
	// Timeout is the per-call deadline applied when the caller's context has
	// none. Default 2s. Zero after explicit configuration means "apply the
	// default"; use a context deadline for unbounded calls.
	Timeout time.Duration
	// Seed drives the jitter RNG so retry schedules are reproducible in
	// tests. Default 1.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Timeout == 0 {
		p.Timeout = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Client wraps a Transport with deadlines and bounded retries. Safe for
// concurrent use.
type Client struct {
	tr Transport
	p  Policy

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient builds a retrying client over tr.
func NewClient(tr Transport, p Policy) *Client {
	p = p.withDefaults()
	return &Client{tr: tr, p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Call performs req against addr, retrying retryable failures with
// exponential backoff + jitter until the policy's attempt budget or the
// deadline runs out. The last transport error is wrapped in the final error.
// A ctx already done sends nothing.
func (c *Client) Call(ctx context.Context, addr string, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if _, ok := ctx.Deadline(); !ok && c.p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.p.Timeout)
		defer cancel()
	}
	var last error
	for attempt := 1; ; attempt++ {
		resp, err := c.tr.Call(ctx, addr, req)
		if err == nil || !Retryable(err) {
			return resp, err
		}
		last = err
		if attempt >= c.p.MaxAttempts {
			break
		}
		select {
		case <-time.After(c.backoff(attempt)):
		case <-ctx.Done():
			return Response{}, fmt.Errorf("transport: retry wait: %w", ctx.Err())
		}
	}
	return Response{}, fmt.Errorf("transport: %d attempts to %s failed: %w", c.p.MaxAttempts, addr, last)
}

// backoff returns the jittered exponential delay before attempt+1
// (attempt counts from 1).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.p.BaseDelay << (attempt - 1)
	if d > c.p.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = c.p.MaxDelay
	}
	c.mu.Lock()
	u := c.rng.Float64()
	c.mu.Unlock()
	jittered := float64(d) * (1 + c.p.Jitter*(2*u-1))
	if jittered < 0 {
		jittered = 0
	}
	return time.Duration(jittered)
}
