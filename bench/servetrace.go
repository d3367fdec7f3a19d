package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcPauseP99 is the p99 stop-the-world pause, in ms, over the GC cycles
// between two MemStats snapshots (the runtime keeps the last 256).
func gcPauseP99(base, end *runtime.MemStats) float64 {
	n := int(end.NumGC - base.NumGC)
	if n > len(end.PauseNs) {
		n = len(end.PauseNs)
	}
	if n == 0 {
		return 0
	}
	pauses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		pauses = append(pauses, float64(end.PauseNs[(int(end.NumGC)-1-i+len(end.PauseNs)*4)%len(end.PauseNs)])/1e6)
	}
	return percentile(sortedCopy(pauses), 0.99)
}

// runtimeProbe brackets a phase with process-wide allocation, GC and CPU
// readings and turns them into the runtime.* metrics.
type runtimeProbe struct {
	mem  runtime.MemStats
	cpu  float64
	wall time.Time
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{}
	runtime.ReadMemStats(&p.mem)
	p.cpu, p.wall = cpuSeconds(), time.Now()
	return p
}

func (p *runtimeProbe) finish(m metricSet, requests int) {
	wall := time.Since(p.wall).Seconds()
	cpu := cpuSeconds() - p.cpu
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if requests == 0 || wall == 0 {
		return
	}
	n := float64(requests)
	set(m, "runtime.allocs_per_request", float64(end.Mallocs-p.mem.Mallocs)/n, requests)
	set(m, "runtime.alloc_bytes_per_request", float64(end.TotalAlloc-p.mem.TotalAlloc)/n, requests)
	set(m, "runtime.gc_pause_p99_ms", gcPauseP99(&p.mem, &end), int(end.NumGC-p.mem.NumGC))
	set(m, "runtime.cpu_s_per_1k_requests", cpu/n*1000, requests)
	set(m, "runtime.cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))), 0)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nodeCounterMetrics turns the cluster-wide counter deltas of a pass into the
// node.* per-request ratios.
func nodeCounterMetrics(m metricSet, d map[string]float64, queries, publishes int) {
	var rpcs float64
	for name, v := range d {
		if strings.HasPrefix(name, "rpc.") {
			rpcs += v
		}
	}
	q, p := float64(queries), float64(publishes)
	fetchRPC := d["rpc.fetch_range"] + d["rpc.fetch_knn"]
	probes := d["cache.hit"] + d["cache.replica_hit"] + d["cache.revalidate_ok"] + d["cache.revalidate_stale"] + d["cache.miss"]
	set := func(name string, v float64, n int) { set(m, name, v, n) }
	set("node.can_search_per_query", ratio(d["rpc.can_search"], q), queries)
	set("node.coord_rpc_per_query", ratio(d["coord.can_search"]+d["coord.agg"]+d["coord.view_version"], q), queries)
	set("node.rpc_per_request", ratio(rpcs, q+p), queries+publishes)
	set("node.fetch_rpc_per_query", ratio(fetchRPC, q), queries)
	set("node.lookup_memo_hit_rate", ratio(d["cache.path_hit"], d["cache.path_hit"]+d["cache.path_miss"]), int(d["cache.path_hit"]+d["cache.path_miss"]))
	set("node.view_cache_hit_rate", ratio(d["cache.hit"]+d["cache.replica_hit"], probes), int(probes))
	set("node.fetch_local_hit_rate", ratio(d["cache.fetch_local_hit"], d["cache.fetch_local_hit"]+fetchRPC), int(d["cache.fetch_local_hit"]+fetchRPC))
	set("node.fetch_inval_per_publish", ratio(d["cache.fetch_inval"], p), publishes)
	set("node.store_rec_per_publish", ratio(d["stream.store_rec"], p), publishes)
}

// onePass boots a fresh cluster (traced when rec is set), replays the warm-up
// prefix and then requests [Warmup, Warmup+n) with one client, and returns the
// pass with the counter deltas it caused. One client makes the cluster's state
// — and so every counter — a function of the request sequence alone.
func onePass(ctx context.Context, w *world, env environment, seed int64, n int, rec *recorder, after func(*served) error) (phase, map[string]float64, error) {
	s, err := serve(ctx, w, env, seed, rec, 1, nil)
	if err != nil {
		return phase{}, nil, err
	}
	defer s.c.stop()
	if nf, first := s.warm.failures(); nf > 0 {
		return phase{}, nil, fmt.Errorf("bench: %d warm-up requests failed: %w", nf, first)
	}
	if rec != nil {
		rec.drain() // spans of the warm-up are not part of the pass
	}
	before := s.c.counters()
	p := s.closedLoop(ctx, 1, s.next, int64(w.sp.Warmup+n), time.Time{})
	delta := counterDelta(before, s.c.counters())
	if after != nil {
		err = after(s)
	}
	return p, delta, err
}

// liveProbes times two overlay operations on the running cluster through the
// node's public API: a one-level sphere collection and a greedy owner lookup.
func liveProbes(ctx context.Context, s *served, m metricSet) error {
	var collect, owner latencies
	for i := 0; i < 40; i++ {
		nd := s.c.nodes[i%len(s.c.nodes)]
		level := i % s.w.sp.Levels
		view := nd.Membership().View(level)
		if len(view.Zones) == 0 {
			continue
		}
		key := make([]float64, len(view.Zones[0].Lo))
		for d := range key {
			key[d] = unit(mix64(fixtureSeed, 99, uint64(i*len(key)+d)))
		}
		t0 := time.Now()
		if _, err := nd.Collect(ctx, level, key, 0.1); err != nil {
			return fmt.Errorf("bench: Collect probe: %w", err)
		}
		collect = append(collect, ms(time.Since(t0)))
		t0 = time.Now()
		if _, _, err := nd.RouteOwner(ctx, level, s.c.addrs[(i+1)%len(s.c.addrs)], key); err != nil {
			return fmt.Errorf("bench: RouteOwner probe: %w", err)
		}
		owner = append(owner, ms(time.Since(t0)))
	}
	set(m, "node.collect_ms", median(collect), len(collect))
	set(m, "node.route_owner_ms", median(owner), len(owner))
	return nil
}

// serveTraced produces a serve workload's per-layer metrics: a loaded untraced
// phase for the process-wide runtime numbers, then the same fixed-count
// one-client pass twice on fresh clusters — plain, then through the tracing
// transport — and the layer probes.
func serveTraced(ctx context.Context, sp spec, env environment, seed int64, seconds float64) (runResult, error) {
	res := runResult{Metrics: metricSet{}}
	m := res.Metrics
	w, err := buildWorld(sp)
	if err != nil {
		return res, err
	}

	// Loaded phase: full client count (and ingest stream), tracing off.
	{
		t := buildTruth(w)
		s, err := serve(ctx, w, env, seed, nil, env.Clients, &t)
		if err != nil {
			return res, err
		}
		res.countGate(s.gate)
		res.countPhase(s.warm)
		rp := startRuntimeProbe()
		p, ing := s.loaded(ctx, env.Clients, s.next, time.Duration(seconds/3*float64(time.Second)))
		rp.finish(m, len(p.samples)+len(ing.late))
		res.countPhase(p)
		res.count(len(ing.late), ing.failed, ing.first)
		set(m, "load.ingest_late_p95_ms", ing.late.p(0.95), len(ing.late))
		s.c.stop()
		runtime.GC()
	}

	n := int(math.Ceil(sp.TracePerSec * seconds))
	if n < 20 {
		n = 20
	}
	twin, _, err := onePass(ctx, w, env, seed, n, nil, func(s *served) error { return liveProbes(ctx, s, m) })
	if err != nil {
		return res, err
	}
	res.countPhase(twin)
	runtime.GC()

	rec := newRecorder()
	traced, delta, err := onePass(ctx, w, env, seed, n, rec, nil)
	if err != nil {
		return res, err
	}
	res.countPhase(traced)

	publishes := len(traced.byOp(opPublish))
	nodeCounterMetrics(m, delta, len(traced.samples)-publishes, publishes)

	spans := rec.drain()
	sum := summarize(spans)
	traceMetrics(m, sum)
	set(m, "trace.overhead_pct", 100*(traced.elapsed.Seconds()-twin.elapsed.Seconds())/twin.elapsed.Seconds(), n)
	if sum.Orphans > 0 {
		res.count(0, sum.Orphans, fmt.Errorf("trace: %d spans do not hang off a request span", sum.Orphans))
	}
	if sum.Requests != len(traced.samples) {
		res.count(0, 1, fmt.Errorf("trace: %d request spans for %d requests", sum.Requests, len(traced.samples)))
	}
	path := filepath.Join(env.OutDir, "trace-"+sp.Name+".json")
	if err := writeTrace(path, sp.Name, seed, spans); err != nil {
		return res, err
	}
	res.notef("traced pass: %d requests, 1 client, %d spans, %d orphans -> %s", sum.Requests, sum.Spans, sum.Orphans, path)
	res.notef("untraced twin %.3f s, traced %.3f s", twin.elapsed.Seconds(), traced.elapsed.Seconds())
	for _, op := range []string{"range", "knn", "publish"} {
		if b, ok := sum.PerOp[op]; ok {
			res.notef("trace %-7s n=%-4d client %.3f ms = client wire %.3f + coord self %.3f + child RPCs %.3f + residual %.3f (medians)",
				op, b.N, b.ClientMs, b.WireMs, b.SelfMs, b.ChildMs, b.ResidualMs)
		}
	}

	if err := layerProbes(m, env.ProbeBudget); err != nil {
		return res, err
	}
	// Share of the range median the holder-side scan explains, per the
	// interaction note in README.md: scan time x fetches per query.
	if p50 := traced.byOp(opRange).p(0.5); p50 > 0 {
		scan := m["core.local_range_us_50k"].Value * float64(sp.ItemsPerPeer) / 50000
		res.notef("scan share: local_range at %d rows ~%.1f us x %.2f fetch RPCs/query = %.3f ms of range p50 %.3f ms (%.1f%%)",
			sp.ItemsPerPeer, scan, m["node.fetch_rpc_per_query"].Value,
			scan*m["node.fetch_rpc_per_query"].Value/1000, p50,
			100*scan*m["node.fetch_rpc_per_query"].Value/1000/p50)
	}
	return res, nil
}

func traceMetrics(m metricSet, s traceSummary) {
	set := func(name string, v float64) { set(m, name, v, s.Requests) }
	set("trace.client_ms", s.ClientMs)
	set("trace.client_wire_ms", s.ClientWireMs)
	set("trace.coord_self_ms", s.CoordSelfMs)
	set("trace.coord_child_ms", s.CoordChildMs)
	set("trace.can_search_wire_ms", s.SearchWireMs)
	set("trace.can_search_handler_ms", s.SearchHandleMs)
	set("trace.fetch_wire_ms", s.FetchWireMs)
	set("trace.fetch_handler_ms", s.FetchHandleMs)
	set("trace.publish_fanout_ms", s.PublishFanMs)
	set("trace.rpc_bytes_per_request", s.BytesPerReq)
	set("trace.orphan_spans", float64(s.Orphans))
}
