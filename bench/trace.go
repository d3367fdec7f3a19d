package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperm/internal/transport"
)

// Tracing from outside the program: every node of a traced cluster, and the
// load client, talks through its own tracedTransport wrapping the shared real
// transport. Call records a client-side span and prefixes the request body
// with the span's id; the Serve wrapper strips the prefix and records the
// handler span with that id as its parent. Nothing inside internal/ changes.
//
// A call made from inside a handler has no context linking it to that handler
// (the node drops ctx on its outgoing path), so its parent is the
// earliest-started handler still running on the calling node. That is exact
// when one client request is in flight — the only way the traced pass runs —
// because the coordinating handler starts before any nested handler the same
// node serves for it.

type spanKind uint8

const (
	kindRequest spanKind = iota // the generator's view of one request
	kindCall                    // tracedTransport.Call, caller side
	kindHandler                 // tracedTransport.Serve wrapper, callee side
)

var kindNames = [...]string{"request", "call", "handler"}

// clientNode is the node id of spans recorded by the load client.
const clientNode = -1

// span is one timed interval. Start and End are nanoseconds since the
// recorder was created.
type span struct {
	ID, Parent uint64
	Req        int64 // request index, set on kindRequest spans
	Node       int
	Kind       spanKind
	Method     string
	Start, End int64
	BytesOut   int // request body bytes (calls) or response body bytes (handlers)
	BytesIn    int // response body bytes (calls) or request body bytes (handlers)
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans in memory; they are written out when the pass ends.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64
	root   atomic.Uint64 // id of the request span in flight

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64    { return int64(time.Since(r.t0)) }
func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// drain hands over the spans recorded so far and starts afresh.
func (r *recorder) drain() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	r.spans = nil
	return spans
}

// beginRequest opens the root span of request i; the returned func closes it.
func (r *recorder) beginRequest(i int64, method string) func() {
	id := r.newID()
	r.root.Store(id)
	start := r.now()
	return func() {
		r.add(span{ID: id, Req: i, Node: clientNode, Kind: kindRequest, Method: method, Start: start, End: r.now()})
		r.root.Store(0)
	}
}

// tracedTransport decorates a transport for one node.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
	node  int

	mu     sync.Mutex
	active []uint64 // handler spans running on this node, in start order
}

const spanPrefix = 8

func (t *tracedTransport) parent() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.active) > 0 {
		return t.active[0]
	}
	return t.rec.root.Load()
}

func (t *tracedTransport) Call(ctx context.Context, addr string, req transport.Request) (transport.Response, error) {
	id := t.rec.newID()
	parent := t.parent()
	body := make([]byte, spanPrefix+len(req.Body))
	binary.BigEndian.PutUint64(body, id)
	copy(body[spanPrefix:], req.Body)
	start := t.rec.now()
	resp, err := t.inner.Call(ctx, addr, transport.Request{Method: req.Method, Body: body})
	t.rec.add(span{ID: id, Parent: parent, Node: t.node, Kind: kindCall, Method: req.Method,
		Start: start, End: t.rec.now(), BytesOut: len(req.Body), BytesIn: len(resp.Body)})
	return resp, err
}

func (t *tracedTransport) Serve(addr string, h transport.Handler) (transport.Server, error) {
	return t.inner.Serve(addr, func(ctx context.Context, req transport.Request) (transport.Response, error) {
		if len(req.Body) < spanPrefix {
			return transport.Response{}, fmt.Errorf("bench: untraced caller reached traced node %d", t.node)
		}
		parent := binary.BigEndian.Uint64(req.Body)
		req.Body = req.Body[spanPrefix:]
		id := t.rec.newID()
		t.mu.Lock()
		t.active = append(t.active, id)
		t.mu.Unlock()
		start := t.rec.now()
		resp, err := h(ctx, req)
		end := t.rec.now()
		t.mu.Lock()
		for i, a := range t.active {
			if a == id {
				t.active = append(t.active[:i], t.active[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
		t.rec.add(span{ID: id, Parent: parent, Node: t.node, Kind: kindHandler, Method: req.Method,
			Start: start, End: end, BytesIn: len(req.Body), BytesOut: len(resp.Body)})
		return resp, err
	})
}

// Close is a no-op: the cluster owns and closes the shared inner transport.
func (t *tracedTransport) Close() error { return nil }

// covered is the length of the union of the children's intervals clipped to
// [start, end]: overlapping children are counted once, not summed.
func covered(start, end int64, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			if v.hi > curHi {
				curHi = v.hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	return s.dur() - covered(s.Start, s.End, children)
}

// traceSummary is what the traced pass contributes to the per-layer metrics.
// Times are per-request (or per-call) medians in milliseconds.
type traceSummary struct {
	Requests, Spans, Orphans int

	ClientMs       float64 // request span: what the generator waited
	ClientWireMs   float64 // client call minus coordinator handler
	CoordSelfMs    float64 // coordinator handler minus the union of its calls
	CoordChildMs   float64 // union of the coordinator's calls
	ResidualMs     float64 // request span minus client call (client-side codec)
	SearchWireMs   float64 // per can_search call: call minus its handler
	SearchHandleMs float64 // per can_search handler
	FetchWireMs    float64 // per fetch_range/fetch_knn call: call minus handler
	FetchHandleMs  float64 // per fetch handler
	PublishFanMs   float64 // per publish: union of the publish handler's calls
	BytesPerReq    float64 // request+response body bytes over all calls / requests

	PerOp map[string]opBreakdown
}

// opBreakdown splits one op's wall-clock the way the acceptance check asks.
type opBreakdown struct {
	N                                             int
	ClientMs, WireMs, SelfMs, ChildMs, ResidualMs float64
}

func isFetch(method string) bool { return method == "fetch_range" || method == "fetch_knn" }

// summarize derives the trace metrics from a finished pass's spans.
func summarize(spans []span) traceSummary {
	byID := make(map[uint64]int, len(spans))
	children := make(map[uint64][]span)
	for i, s := range spans {
		byID[s.ID] = i
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := traceSummary{Spans: len(spans), PerOp: map[string]opBreakdown{}}

	// Orphans: spans whose parent chain does not end at a request span.
	rooted := make(map[uint64]bool, len(spans))
	var reaches func(id uint64, depth int) bool
	reaches = func(id uint64, depth int) bool {
		if v, ok := rooted[id]; ok {
			return v
		}
		i, ok := byID[id]
		ok = ok && depth < 64
		if ok {
			s := spans[i]
			ok = s.Kind == kindRequest || (s.Parent != 0 && reaches(s.Parent, depth+1))
		}
		rooted[id] = ok
		return ok
	}
	var totalBytes float64
	var searchWire, searchHandle, fetchWire, fetchHandle latencies
	for _, s := range spans {
		if !reaches(s.ID, 0) {
			sum.Orphans++
		}
		if s.Kind != kindCall {
			continue
		}
		totalBytes += float64(s.BytesOut + s.BytesIn)
		var handler *span
		for i := range children[s.ID] {
			if children[s.ID][i].Kind == kindHandler {
				handler = &children[s.ID][i]
			}
		}
		if handler == nil {
			continue
		}
		switch {
		case s.Method == "can_search":
			searchWire = append(searchWire, float64(s.dur()-handler.dur())/1e6)
			searchHandle = append(searchHandle, float64(handler.dur())/1e6)
		case isFetch(s.Method):
			fetchWire = append(fetchWire, float64(s.dur()-handler.dur())/1e6)
			fetchHandle = append(fetchHandle, float64(handler.dur())/1e6)
		}
	}

	// Per op, plus "query" for range and kNN together.
	type opAcc struct{ client, wire, self, child, resid latencies }
	perOp := map[string]*opAcc{}
	for _, root := range spans {
		if root.Kind != kindRequest {
			continue
		}
		sum.Requests++
		var call, handler *span
		for i := range children[root.ID] {
			if c := &children[root.ID][i]; c.Kind == kindCall && c.Node == clientNode {
				call = c
			}
		}
		if call == nil {
			continue
		}
		for i := range children[call.ID] {
			if c := &children[call.ID][i]; c.Kind == kindHandler {
				handler = c
			}
		}
		if handler == nil {
			continue
		}
		kids := children[handler.ID]
		ops := []string{root.Method}
		if root.Method != "publish" {
			ops = append(ops, "query")
		}
		for _, op := range ops {
			acc := perOp[op]
			if acc == nil {
				acc = &opAcc{}
				perOp[op] = acc
			}
			acc.client = append(acc.client, float64(root.dur())/1e6)
			acc.wire = append(acc.wire, float64(call.dur()-handler.dur())/1e6)
			acc.self = append(acc.self, float64(selfTime(*handler, kids))/1e6)
			acc.child = append(acc.child, float64(covered(handler.Start, handler.End, kids))/1e6)
			acc.resid = append(acc.resid, float64(root.dur()-call.dur())/1e6)
		}
	}
	for op, a := range perOp {
		sum.PerOp[op] = opBreakdown{N: len(a.client), ClientMs: median(a.client), WireMs: median(a.wire),
			SelfMs: median(a.self), ChildMs: median(a.child), ResidualMs: median(a.resid)}
	}
	q := sum.PerOp["query"]
	sum.ClientMs, sum.ClientWireMs = q.ClientMs, q.WireMs
	sum.CoordSelfMs, sum.CoordChildMs, sum.ResidualMs = q.SelfMs, q.ChildMs, q.ResidualMs
	sum.PublishFanMs = sum.PerOp["publish"].ChildMs
	sum.SearchWireMs, sum.SearchHandleMs = median(searchWire), median(searchHandle)
	sum.FetchWireMs, sum.FetchHandleMs = median(fetchWire), median(fetchHandle)
	if sum.Requests > 0 {
		sum.BytesPerReq = totalBytes / float64(sum.Requests)
	}
	return sum
}

// writeTrace writes the spans as one JSON document: a column header and one
// row per span, so a 100k-span trace stays a few MB and loads with any JSON
// reader (see README "Reading a trace file").
func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"columns":["id","parent","req","node","kind","method","start_ns","end_ns","bytes_out","bytes_in"],"spans":[`, workload, seed)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%q,%q,%d,%d,%d,%d]", s.ID, s.Parent, s.Req, s.Node,
			kindNames[s.Kind], s.Method, s.Start, s.End, s.BytesOut, s.BytesIn)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
