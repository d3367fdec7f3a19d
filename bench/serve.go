package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/node"
	"hyperm/internal/transport"
)

// target is what the generator offers requests to: a serving cluster reached
// through node.Client, or a published hyperm.Network called in-process. node
// is the coordinator (queries) or the receiving peer (publishes).
type target interface {
	publish(ctx context.Context, node, id int, item []float64) error
	rangeQuery(ctx context.Context, node int, q []float64, eps float64) ([]int, error)
	knnQuery(ctx context.Context, node int, q []float64, k int) ([]int, error)
}

// liveCluster is one in-process serving cluster: a node per peer of the world
// on a shared transport, plus the load client. With a recorder every node and
// the client talk through their own tracedTransport.
type liveCluster struct {
	tr     transport.Transport
	nodes  []*node.Node
	addrs  []string
	client *node.Client
}

var rpcPolicy = transport.Policy{Timeout: 60 * time.Second, Seed: fixtureSeed}

// startCluster boots the cluster on a fresh transport ("tcp" loopback or the
// in-process "chan" transport the tests use).
func startCluster(w *world, transportName string, rec *recorder) (*liveCluster, error) {
	c := &liveCluster{}
	listen := ""
	switch transportName {
	case "tcp":
		c.tr, listen = transport.NewTCP(), "127.0.0.1:0"
	case "chan":
		c.tr = transport.NewChan()
	default:
		return nil, fmt.Errorf("bench: unknown transport %q", transportName)
	}
	wrap := func(id int) transport.Transport {
		if rec == nil {
			return c.tr
		}
		return &tracedTransport{inner: c.tr, rec: rec, node: id}
	}
	snaps, err := node.ExtractAll(w.sys)
	if err != nil {
		c.stop()
		return nil, err
	}
	for p, snap := range snaps {
		nd, err := node.New(node.Config{Snapshot: snap, Transport: wrap(p), Listen: listen, Retry: rpcPolicy, Tuning: w.sp.Tuning})
		if err == nil {
			err = nd.Start()
		}
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("bench: starting peer %d: %w", p, err)
		}
		c.nodes = append(c.nodes, nd)
		c.addrs = append(c.addrs, nd.Addr())
	}
	for _, nd := range c.nodes {
		nd.SetPeers(c.addrs)
	}
	c.client = node.NewClient(wrap(clientNode), rpcPolicy)
	return c, nil
}

func (c *liveCluster) stop() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	if c.tr != nil {
		c.tr.Close()
	}
}

func (c *liveCluster) publish(ctx context.Context, node, id int, item []float64) error {
	return c.client.Publish(ctx, c.addrs[node], id, item)
}

func (c *liveCluster) rangeQuery(ctx context.Context, node int, q []float64, eps float64) ([]int, error) {
	res, err := c.client.Range(ctx, c.addrs[node], q, eps, core.RangeOptions{})
	return res.Items, err
}

func (c *liveCluster) knnQuery(ctx context.Context, node int, q []float64, k int) ([]int, error) {
	res, err := c.client.KNN(ctx, c.addrs[node], q, k, core.KNNOptions{})
	return res.Items, err
}

// counters sums every node's counters.
func (c *liveCluster) counters() map[string]float64 {
	sum := map[string]float64{}
	for _, nd := range c.nodes {
		for k, v := range nd.Counters() {
			sum[k] += v
		}
	}
	return sum
}

func counterDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sample is one completed request.
type sample struct {
	op  opKind
	ms  float64
	err error
}

// runner offers one workload's request stream to one target.
type runner struct {
	w    *world
	t    target
	st   *stream
	seed int64
	rec  *recorder // set on a traced pass: each request gets a root span
}

func newRunner(w *world, t target, seed int64, rec *recorder) *runner {
	sp := w.sp
	return &runner{w: w, t: t, seed: seed, rec: rec,
		st: newStream(seed, sp.Peers, sp.Pool, sp.PublishEvery, sp.ZipfS, sp.Repeat, sp.Affinity)}
}

// vecOf resolves an item id to the vector the generator holds for it: a corpus
// row, or a published item rebuilt from its id.
func (r *runner) vecOf(id int) []float64 {
	switch {
	case id >= 0 && id < len(r.w.data):
		return r.w.data[id]
	case id >= ingestIDBase:
		j := int64(id - ingestIDBase)
		q, _ := r.st.ingestAt(j, r.w.sp.Pool)
		return jitterItem(r.seed, streamIngestJitter, uint64(j), r.w.pool.centers[q])
	case id >= publishIDBase:
		i := int64(id - publishIDBase)
		return jitterItem(r.seed, streamJitter, uint64(i), r.w.pool.centers[r.st.queries[i%seqLen]])
	}
	return nil
}

// issue sends request i, times it, then checks the answer. The check runs
// after the clock stops.
func (r *runner) issue(ctx context.Context, i int64) sample {
	req := r.st.at(i)
	q, eps := r.w.pool.centers[req.Query], r.w.pool.radii[req.Query]
	var item []float64
	if req.Op == opPublish {
		item = jitterItem(r.seed, streamJitter, uint64(i), q)
	}
	endSpan := func() {}
	if r.rec != nil {
		endSpan = r.rec.beginRequest(i, opNames[req.Op])
	}
	var err error
	var items []int
	t0 := time.Now()
	switch req.Op {
	case opPublish:
		err = r.t.publish(ctx, req.Node, publishIDBase+int(i), item)
	case opRange:
		items, err = r.t.rangeQuery(ctx, req.Node, q, eps)
	case opKNN:
		items, err = r.t.knnQuery(ctx, req.Node, q, r.w.sp.K)
	}
	dur := time.Since(t0)
	endSpan()
	if err == nil {
		switch req.Op {
		case opRange:
			err = checkRange(q, eps, items, r.vecOf)
		case opKNN:
			err = checkKNN(q, items, r.vecOf)
		}
	}
	return sample{op: req.Op, ms: ms(dur), err: err}
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	samples []sample
	elapsed time.Duration
}

func (p phase) failures() (n int, first error) {
	for _, s := range p.samples {
		if s.err != nil {
			if first == nil {
				first = s.err
			}
			n++
		}
	}
	return n, first
}

func (p phase) byOp(op opKind) latencies {
	var l latencies
	for _, s := range p.samples {
		if s.op == op && s.err == nil {
			l = append(l, s.ms)
		}
	}
	return l
}

// closedLoop runs clients goroutines, each sending its next request only after
// the previous one completed. Request indices come from next, shared by all
// clients; the phase ends at index limit (limit >= 0, and next is left there)
// or at the deadline (limit < 0).
func (r *runner) closedLoop(ctx context.Context, clients int, next *atomic.Int64, limit int64, deadline time.Time) phase {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if limit < 0 && !time.Now().Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if limit >= 0 && i >= limit {
					return
				}
				per[c] = append(per[c], r.issue(ctx, i))
			}
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	if limit >= 0 {
		next.Store(limit) // every client overshot by one
	}
	return p
}

// ingestPhase is the outcome of the open-loop publish stream.
type ingestPhase struct {
	fromDue latencies // completion minus due time, ms
	late    latencies // actual send minus due time, ms: generator lateness
	failed  int
	first   error
}

// openLoop calls do(j) for j = 0, 1, ... at a fixed rate until the deadline,
// each call on its own goroutine and regardless of completions. Each call is
// timed from its due time, so a stall is charged to every call queued behind
// it, and how late the generator itself ran is recorded separately.
func openLoop(rate float64, deadline time.Time, do func(j int64) error) ingestPhase {
	var mu sync.Mutex
	var out ingestPhase
	var wg sync.WaitGroup
	start := time.Now()
	for j := int64(0); ; j++ {
		due := start.Add(time.Duration(dueSeconds(j, rate) * float64(time.Second)))
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(j int64) {
			defer wg.Done()
			sent := time.Now()
			err := do(j)
			done := time.Now()
			mu.Lock()
			defer mu.Unlock()
			out.late = append(out.late, ms(sent.Sub(due)))
			if err != nil {
				out.failed++
				if out.first == nil {
					out.first = err
				}
				return
			}
			out.fromDue = append(out.fromDue, ms(done.Sub(due)))
		}(j)
	}
	wg.Wait()
	return out
}

// loaded runs the workload's full load for d: the closed loop on every client
// plus, where the workload has one, the open-loop publish stream to founders.
func (r *runner) loaded(ctx context.Context, clients int, next *atomic.Int64, d time.Duration) (phase, ingestPhase) {
	deadline := time.Now().Add(d)
	var ing ingestPhase
	var wg sync.WaitGroup
	if rate := r.w.sp.IngestRate; rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ing = openLoop(rate, deadline, func(j int64) error {
				qi, nd := r.st.ingestAt(j, r.w.sp.Pool)
				item := jitterItem(r.seed, streamIngestJitter, uint64(j), r.w.pool.centers[qi])
				return r.t.publish(ctx, nd, ingestIDBase+int(j), item)
			})
		}()
	}
	p := r.closedLoop(ctx, clients, next, -1, deadline)
	wg.Wait()
	return p, ing
}

// gateResult is the quality gate's verdict.
type gateResult struct {
	attempted, failed      int
	first                  error
	rangeRecall, knnRecall float64
}

// gate offers the truth queries to the target before anything was published
// to it. Every range answer must have precision 1.0 and every kNN answer must
// be in ascending distance; a serving cluster's answers must also equal the
// source system's in-process answers item for item. The same answers scored
// against the flat index give the recalls.
func (r *runner) gate(ctx context.Context, t truth) gateResult {
	var g gateResult
	peers := r.w.sp.Peers
	check := func(err error) bool {
		g.attempted++
		if err != nil {
			g.failed++
			if g.first == nil {
				g.first = err
			}
		}
		return err == nil
	}
	gotRange := make([][]int, len(t.rangeQ))
	for i, q := range t.rangeQ {
		p, eps := i%peers, t.rangeEps[i]
		items, err := r.t.rangeQuery(ctx, p, q, eps)
		if err == nil {
			err = checkRange(q, eps, items, r.vecOf)
		}
		if err == nil && r.w.sp.Serve && !sameInts(items, r.w.sys.RangeQuery(p, q, eps, core.RangeOptions{}).Items) {
			err = fmt.Errorf("gate: range query %d via peer %d differs from the oracle", i, p)
		}
		if check(err) {
			gotRange[i] = items
		}
	}
	gotKNN := make([][]int, len(t.knnQ))
	for i, q := range t.knnQ {
		p := (i + 1) % peers
		items, err := r.t.knnQuery(ctx, p, q, t.k)
		if err == nil {
			err = checkKNN(q, items, r.vecOf)
		}
		if err == nil && r.w.sp.Serve && !sameInts(items, r.w.sys.KNNQuery(p, q, t.k, core.KNNOptions{}).Items) {
			err = fmt.Errorf("gate: knn query %d via peer %d differs from the oracle", i, p)
		}
		if check(err) {
			gotKNN[i] = items
		}
	}
	g.rangeRecall = recallOf(gotRange, t.rangeWant, 0)
	g.knnRecall = recallOf(gotKNN, t.knnWant, t.k)
	return g
}

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// served is a booted, warmed-up cluster with the runner driving it.
type served struct {
	*runner
	c    *liveCluster
	next *atomic.Int64 // first request index after the warm-up prefix
	warm phase
	gate gateResult
	// unbilled is the time the gate took: a correctness check, not set-up.
	unbilled time.Duration
}

// serve boots a cluster on w (traced when rec is set), runs the gate if given
// one — between boot and warm-up, while the cluster still holds exactly the
// source system's items — and discards the warm-up prefix of the request
// stream.
func serve(ctx context.Context, w *world, env environment, seed int64, rec *recorder, clients int, t *truth) (*served, error) {
	c, err := startCluster(w, env.Transport, rec)
	if err != nil {
		return nil, err
	}
	s := &served{runner: newRunner(w, c, seed, rec), c: c, next: new(atomic.Int64)}
	if t != nil {
		t0 := time.Now()
		s.gate = s.runner.gate(ctx, *t)
		s.unbilled = time.Since(t0)
	}
	s.warm = s.closedLoop(ctx, clients, s.next, int64(w.sp.Warmup), time.Time{})
	return s, nil
}

// runResult is one run of one workload in one trace mode.
type runResult struct {
	Workload  string    `json:"workload"`
	Trace     int       `json:"trace"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	WallS     float64   `json:"wall_s"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Notes are extra lines for the human-readable report (sample counts,
	// generator lateness, trace breakdowns).
	Notes []string `json:"notes,omitempty"`
	first error
}

func (res *runResult) count(attempted, failed int, first error) {
	res.Attempted += attempted
	res.Failed += failed
	if res.first == nil {
		res.first = first
	}
}

func (res *runResult) countPhase(p phase) (failed int) {
	nf, first := p.failures()
	res.count(len(p.samples), nf, first)
	return nf
}

func (res *runResult) countGate(g gateResult) { res.count(g.attempted, g.failed, g.first) }

func (res *runResult) notef(format string, args ...any) {
	res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
}

// latencyMetrics fills the six per-op latency metrics and notes, per op, the
// highest percentile the sample count supports (at least minBeyond samples
// beyond it) next to the fixed p95 the contract reports.
func (res *runResult) latencyMetrics(rangeL, knnL, pubL latencies) {
	for _, op := range []struct {
		name string
		l    latencies
	}{{"range", rangeL}, {"knn", knnL}, {"publish", pubL}} {
		set(res.Metrics, op.name+"_p50_ms", op.l.p(0.5), len(op.l))
		set(res.Metrics, op.name+"_p95_ms", op.l.p(0.95), len(op.l))
		if p, ok := tailPercentile(len(op.l), []float64{0.9, 0.95, 0.99, 0.999}); ok {
			res.notef("%s: %d samples; highest supported percentile p%g = %.3f ms (%d samples beyond)",
				op.name, len(op.l), p*100, op.l.p(p), beyond(len(op.l), p))
		} else {
			res.notef("%s: %d samples; too few for any tail percentile", op.name, len(op.l))
		}
	}
}

// serveEndToEnd measures a serve workload with tracing off.
func serveEndToEnd(ctx context.Context, sp spec, env environment, seed int64, seconds float64) (runResult, error) {
	res := runResult{Metrics: metricSet{}}
	var setups []float64
	var s *served
	var tr truth
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.c.stop()
			s = nil
			runtime.GC()
		}
		// The gate runs once, on the cluster that is then measured.
		var gate *truth
		if rep == setupReps-1 {
			gate = &tr
		}
		t0 := time.Now()
		w, err := buildWorld(sp)
		if err != nil {
			return res, err
		}
		if s, err = serve(ctx, w, env, seed, nil, env.Clients, gate); err != nil {
			return res, err
		}
		setups = append(setups, (time.Since(t0) - s.unbilled).Seconds())
		res.countPhase(s.warm)
		if rep == 0 {
			tr = buildTruth(w) // the world is a fixture: every rep builds the same one
		}
	}
	defer s.c.stop()
	res.countGate(s.gate)

	runtime.GC()
	p, ing := s.loaded(ctx, env.Clients, s.next, time.Duration(seconds*float64(time.Second)))
	heap := liveHeapMiB()
	nf := res.countPhase(p)
	res.count(len(ing.late), ing.failed, ing.first)

	pubL := p.byOp(opPublish)
	published := len(pubL) + len(ing.fromDue)
	if sp.IngestRate > 0 {
		// The publish latency a user of this workload sees is the stream's.
		pubL = ing.fromDue
		res.notef("open-loop ingest: %d publishes at %.0f/s; generator lateness p50 %.3f ms, p95 %.3f ms, max %.3f ms",
			len(ing.late), sp.IngestRate, ing.late.p(0.5), ing.late.p(0.95), ing.late.p(1))
	}
	ok := len(p.samples) - nf
	secs := p.elapsed.Seconds()
	m := res.Metrics
	set(m, "setup_s", median(setups), len(setups))
	set(m, "qps", float64(ok)/secs, ok)
	set(m, "items_per_s", float64(published)/secs, published)
	res.latencyMetrics(p.byOp(opRange), p.byOp(opKNN), pubL)
	set(m, "hops_per_item", s.w.hopsPerItem, len(s.w.data))
	set(m, "range_recall", s.gate.rangeRecall, sp.Gate)
	set(m, "knn_recall", s.gate.knnRecall, sp.Gate)
	set(m, "heap_mib", heap, 0)
	return res, nil
}
