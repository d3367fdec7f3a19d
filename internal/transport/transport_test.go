package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// harness abstracts over the two implementations so every behavioral test
// runs against both.
type harness struct {
	name string
	mk   func(t *testing.T) Transport
	// freeAddr reserves an address that is currently not served but can be
	// served later (late-start scenarios).
	freeAddr func(t *testing.T, tr Transport) string
}

func harnesses() []harness {
	return []harness{
		{
			name:     "chan",
			mk:       func(t *testing.T) Transport { return NewChan() },
			freeAddr: func(t *testing.T, tr Transport) string { return "late-endpoint" },
		},
		{
			name: "tcp",
			mk:   func(t *testing.T) Transport { return NewTCP() },
			freeAddr: func(t *testing.T, tr Transport) string {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr := ln.Addr().String()
				ln.Close()
				return addr
			},
		},
	}
}

func echoHandler(ctx context.Context, req Request) (Response, error) {
	return Response{Body: append([]byte("echo:"), req.Body...)}, nil
}

func TestRoundTrip(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			tr := h.mk(t)
			defer tr.Close()
			srv, err := tr.Serve(serveAddr(h), echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// Repeated calls exercise connection reuse on the TCP transport.
			for i := 0; i < 5; i++ {
				body := fmt.Sprintf("ping-%d", i)
				resp, err := tr.Call(context.Background(), srv.Addr(), Request{Method: "echo", Body: []byte(body)})
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if got, want := string(resp.Body), "echo:"+body; got != want {
					t.Fatalf("call %d: got %q, want %q", i, got, want)
				}
			}
		})
	}
}

func serveAddr(h harness) string {
	if h.name == "tcp" {
		return "127.0.0.1:0"
	}
	return "" // chan transport auto-assigns
}

// TestFailureModes is the table-driven matrix of the satellite requirement:
// deadline exceeded, retry-then-succeed, retry budget exhausted, and server
// stopped mid-request — on both transports.
func TestFailureModes(t *testing.T) {
	for _, h := range harnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			t.Run("deadline exceeded", func(t *testing.T) {
				tr := h.mk(t)
				defer tr.Close()
				srv, err := tr.Serve(serveAddr(h), func(ctx context.Context, req Request) (Response, error) {
					select {
					case <-time.After(2 * time.Second):
					case <-ctx.Done():
					}
					return Response{}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				start := time.Now()
				_, err = tr.Call(ctx, srv.Addr(), Request{Method: "slow"})
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("got %v, want DeadlineExceeded", err)
				}
				if el := time.Since(start); el > time.Second {
					t.Fatalf("deadline ignored: call took %v", el)
				}
				if Retryable(err) {
					t.Fatal("deadline expiry must not be retryable")
				}
			})

			t.Run("retry then succeed", func(t *testing.T) {
				tr := h.mk(t)
				defer tr.Close()
				addr := h.freeAddr(t, tr)
				client := NewClient(tr, Policy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Timeout: 5 * time.Second})
				// Bring the endpoint up only after the client has started
				// failing: the first attempts hit nothing, the retry loop
				// must pick the server up once it appears.
				go func() {
					time.Sleep(30 * time.Millisecond)
					if _, err := tr.Serve(addr, echoHandler); err != nil {
						t.Error(err)
					}
				}()
				resp, err := client.Call(context.Background(), addr, Request{Method: "echo", Body: []byte("x")})
				if err != nil {
					t.Fatalf("retries never succeeded: %v", err)
				}
				if string(resp.Body) != "echo:x" {
					t.Fatalf("bad response %q", resp.Body)
				}
			})

			t.Run("retry budget exhausted", func(t *testing.T) {
				tr := h.mk(t)
				defer tr.Close()
				addr := h.freeAddr(t, tr) // never served
				client := NewClient(tr, Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Timeout: 5 * time.Second})
				start := time.Now()
				_, err := client.Call(context.Background(), addr, Request{Method: "echo"})
				if err == nil {
					t.Fatal("call to dead endpoint succeeded")
				}
				if !errors.Is(err, ErrUnavailable) {
					t.Fatalf("got %v, want ErrUnavailable after budget", err)
				}
				if !strings.Contains(err.Error(), "3 attempts") {
					t.Fatalf("error %q does not report the attempt budget", err)
				}
				if el := time.Since(start); el > 2*time.Second {
					t.Fatalf("budget exhaustion took %v", el)
				}
			})

			t.Run("server stopped mid-request", func(t *testing.T) {
				tr := h.mk(t)
				defer tr.Close()
				started := make(chan struct{})
				unblock := make(chan struct{})
				defer close(unblock)
				srv, err := tr.Serve(serveAddr(h), func(ctx context.Context, req Request) (Response, error) {
					close(started)
					select {
					case <-unblock:
					case <-ctx.Done():
					}
					return Response{Body: []byte("too late")}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				errs := make(chan error, 1)
				go func() {
					_, err := tr.Call(context.Background(), srv.Addr(), Request{Method: "hang"})
					errs <- err
				}()
				<-started
				srv.Close()
				select {
				case err := <-errs:
					if err == nil {
						t.Fatal("call survived server shutdown")
					}
					if !Retryable(err) {
						t.Fatalf("mid-request shutdown not retryable: %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("call hung across server shutdown")
				}
				// The endpoint is gone: subsequent calls fail fast and stay
				// retryable.
				if _, err := tr.Call(context.Background(), srv.Addr(), Request{Method: "hang"}); !Retryable(err) {
					t.Fatalf("post-shutdown call: %v", err)
				}
			})

			t.Run("remote errors are not retried", func(t *testing.T) {
				tr := h.mk(t)
				defer tr.Close()
				var calls atomic.Int64
				srv, err := tr.Serve(serveAddr(h), func(ctx context.Context, req Request) (Response, error) {
					calls.Add(1)
					return Response{}, fmt.Errorf("no such method")
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				client := NewClient(tr, Policy{MaxAttempts: 5, BaseDelay: time.Millisecond})
				_, err = client.Call(context.Background(), srv.Addr(), Request{Method: "bogus"})
				var remote *RemoteError
				if !errors.As(err, &remote) {
					t.Fatalf("got %v, want RemoteError", err)
				}
				if !strings.Contains(remote.Msg, "no such method") {
					t.Fatalf("remote message lost: %q", remote.Msg)
				}
				if n := calls.Load(); n != 1 {
					t.Fatalf("handler ran %d times, want 1 (no retry on remote errors)", n)
				}
			})
		})
	}
}

// codecMsg carries one field of every kind a Coder walks.
type codecMsg struct {
	u8     uint8
	i      int
	f      float64
	fs     []float64
	is     []int
	empty  []float64
	s      string
	ids    []int
	strs   []string
	absent bool
}

func walkCodecMsg(c *Coder, m *codecMsg) {
	c.U8(&m.u8)
	c.Int(&m.i)
	c.F64(&m.f)
	c.Floats(&m.fs)
	c.Ints(&m.is)
	c.Floats(&m.empty)
	c.String(&m.s)
	c.IntsDelta(&m.ids)
	l := List(c, &m.strs, 4)
	for i := range l {
		c.String(&l[i])
	}
	present := !m.absent
	mark := c.Begin(&present)
	if c.Decoding() {
		m.absent = !present
	}
	if present {
		c.String(&m.s)
		c.End(mark)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := codecMsg{u8: 7, i: -42, f: 3.14159, fs: []float64{1.5, -2.5, 0}, is: []int{10, -20},
		s: "hello", ids: []int{3, 4, 300, -1}, strs: []string{"a", "", "bc"}}
	body := Encode(&in, walkCodecMsg)
	if cap(body) != len(body) || len(body) != Size(&in, walkCodecMsg) {
		t.Fatalf("sized %d bytes, encoded %d", cap(body), len(body))
	}
	got, err := Decode(body, walkCodecMsg)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip: %+v (%v), want %+v", got, err, in)
	}
	in.absent = true
	if got, err := Decode(Encode(&in, walkCodecMsg), walkCodecMsg); err != nil || !got.absent {
		t.Fatalf("absent sub-message decoded as %+v (%v)", got, err)
	}

	// Truncation is caught, errors are sticky, and Finish rejects leftovers.
	d := NewDecoder(body[:3])
	if got := Read(d, walkCodecMsg); d.Finish() == nil || got.i != 0 || got.fs != nil {
		t.Fatalf("truncated decode read %+v (%v)", got, d.Finish())
	}
	if _, err := Decode(append(body, 0), walkCodecMsg); err == nil {
		t.Fatal("trailing bytes not detected")
	}
	// A sub-message whose length disagrees with its body is refused.
	short := bytes.Clone(body)
	binary.BigEndian.PutUint32(short[len(short)-4-len(in.s)-4:], uint32(len(in.s)+5))
	if _, err := Decode(short, walkCodecMsg); err == nil {
		t.Fatal("sub-message length beyond its body accepted")
	}
	// A corrupt length prefix must not force a huge allocation.
	var bad Encoder
	bad.U32(1 << 30)
	d = NewDecoder(bad.Bytes())
	if d.FloatsShared() != nil || d.Finish() == nil {
		t.Fatal("oversized sequence accepted")
	}
}

// Backoff delays must grow exponentially, stay within the jitter envelope,
// cap at MaxDelay, and be reproducible from the seed.
func TestClientBackoff(t *testing.T) {
	mk := func() *Client {
		return NewClient(NewChan(), Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Jitter: 0.2, Seed: 7})
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 8; attempt++ {
		da := a.backoff(attempt)
		if db := b.backoff(attempt); da != db {
			t.Fatalf("attempt %d: same seed, different delays %v vs %v", attempt, da, db)
		}
		nominal := 10 * time.Millisecond << (attempt - 1)
		if nominal > 80*time.Millisecond {
			nominal = 80 * time.Millisecond
		}
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if da < lo || da > hi {
			t.Fatalf("attempt %d: delay %v outside jitter envelope [%v, %v]", attempt, da, lo, hi)
		}
	}
}

// TestRemoteErrorDetail verifies the machine-readable detail token round-trip
// on both transports: a WithDetail-annotated handler error arrives as a
// *RemoteError carrying the token in Detail, readable via ErrorDetail;
// unannotated errors arrive with an empty Detail.
func TestRemoteErrorDetail(t *testing.T) {
	for _, h := range harnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			tr := h.mk(t)
			defer tr.Close()
			srv, err := tr.Serve(serveAddr(h), func(ctx context.Context, req Request) (Response, error) {
				switch req.Method {
				case "classified":
					return Response{}, WithDetail(errors.New("hop budget gone"), "route/loop-limit")
				default:
					return Response{}, errors.New("plain failure")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			_, err = tr.Call(context.Background(), srv.Addr(), Request{Method: "classified"})
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("got %v, want *RemoteError", err)
			}
			if re.Detail != "route/loop-limit" {
				t.Fatalf("Detail = %q, want %q", re.Detail, "route/loop-limit")
			}
			if got := ErrorDetail(err); got != "route/loop-limit" {
				t.Fatalf("ErrorDetail = %q, want %q", got, "route/loop-limit")
			}
			if !strings.Contains(re.Msg, "hop budget gone") {
				t.Fatalf("Msg = %q, want the handler message preserved", re.Msg)
			}

			_, err = tr.Call(context.Background(), srv.Addr(), Request{Method: "plain"})
			if !errors.As(err, &re) {
				t.Fatalf("got %v, want *RemoteError", err)
			}
			if re.Detail != "" || ErrorDetail(err) != "" {
				t.Fatalf("unannotated error carried detail %q", re.Detail)
			}
		})
	}
}

// TestWithDetailServerSide verifies the server-side annotation behaves as a
// transparent wrapper: errors.Is still matches, nil stays nil.
func TestWithDetailServerSide(t *testing.T) {
	if WithDetail(nil, "x") != nil {
		t.Fatal("WithDetail(nil) != nil")
	}
	base := errors.New("sentinel")
	wrapped := WithDetail(base, "tok")
	if !errors.Is(wrapped, base) {
		t.Fatal("WithDetail broke errors.Is")
	}
	if ErrorDetail(wrapped) != "tok" {
		t.Fatalf("ErrorDetail = %q, want tok", ErrorDetail(wrapped))
	}
	if ErrorDetail(base) != "" {
		t.Fatal("unannotated error has detail")
	}
}
