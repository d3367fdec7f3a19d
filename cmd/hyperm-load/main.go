// Command hyperm-load is the closed-loop load harness of the serving
// runtime: it boots a local cluster of serving nodes (one per peer of a
// deterministic workload), then drives a mixed publish/range/kNN request
// stream from N client goroutines and reports throughput and latency
// percentiles.
//
// Usage:
//
//	hyperm-load                       # 8 nodes, 10k requests, TCP loopback
//	hyperm-load -transport chan       # in-process transport
//	hyperm-load -out BENCH_serve.json # also write the benchio artifact
//
// The mix is 10% publish, 45% range, 45% kNN, assigned deterministically by
// request index. The process exits non-zero if any request fails — the
// zero-errors contract of the serving runtime's acceptance check.
//
// With -churn the run doubles as an availability probe: a churn driver joins,
// gracefully leaves, and crashes nodes at the given interval while the client
// load keeps flowing (requests only target currently-alive nodes). Mid-churn
// failures are then expected — a request can race a takeover — so the run
// reports the availability fraction in an extra "availability" row instead of
// failing on the first error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperm/internal/benchio"
	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// ServeBenchRow is one op-class measurement of a load run (op "all" is the
// aggregate row carrying the overall QPS). Written as BENCH_serve.json under
// the shared benchio envelope.
type ServeBenchRow struct {
	// Op is "publish", "range", "knn", or "all".
	Op string `json:"op"`
	// Transport is the substrate ("tcp" or "chan").
	Transport string `json:"transport"`
	// Nodes and Clients describe the cluster and the offered load.
	Nodes   int `json:"nodes"`
	Clients int `json:"clients"`
	// Requests and Errors count this op's completions and failures.
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Seconds is the whole run's wall-clock time (same on every row).
	Seconds float64 `json:"seconds"`
	// QPS is Requests/Seconds for this op class.
	QPS float64 `json:"qps"`
	// P50/P95/P99Ms are latency percentiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// ErrorClasses breaks Errors down by failure class: the routing-core
	// detail tokens ("route/loop-limit", "route/no-neighbor") vs plain
	// remote errors ("remote") vs transport-level failures ("transport").
	// Omitted when the run is clean.
	ErrorClasses map[string]int `json:"error_classes,omitempty"`
	// Availability is the fraction of requests that succeeded; set only on
	// the "availability" row of churn runs (-churn > 0).
	Availability float64 `json:"availability,omitempty"`
	// ChurnEvents counts the membership events the churn driver executed
	// ("join", "leave", "crash"); set only on the "availability" row.
	ChurnEvents map[string]int `json:"churn_events,omitempty"`
	// Alpha is the lookup coordinator's α (concurrent can_search probes).
	Alpha int `json:"alpha,omitempty"`
	// OfferedQPS is the open-loop arrival rate; set on "sweep" rows (and on
	// the main rows of a -rate run), 0 for closed-loop rows.
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	// ZipfS and RepeatFrac describe the query-popularity skew: the Zipf
	// exponent of the per-request query draw (0 = uniform) and the fraction of
	// requests that repeat the previous request's query.
	ZipfS      float64 `json:"zipf_s,omitempty"`
	RepeatFrac float64 `json:"repeat_frac,omitempty"`
	// CacheViews records whether the cluster ran with the lookup memo and
	// fetch caches on, so every row names its configuration. Affinity records
	// the client routing policy: queries hashed to a coordinator (true) vs
	// uniformly random coordinators (false).
	CacheViews bool `json:"cache_views,omitempty"`
	Affinity   bool `json:"affinity,omitempty"`
	// Cache telemetry is aggregated across all nodes for this row's phase
	// (the main run or one sweep phase); zero when caching is off.
	// PathHits/PathMisses count whole level searches served from the lookup
	// memo (no machine run, no view probes at all) vs run live;
	// LookupHitRate is their ratio.
	PathHits      float64 `json:"path_hits,omitempty"`
	PathMisses    float64 `json:"path_misses,omitempty"`
	LookupHitRate float64 `json:"lookup_hit_rate,omitempty"`
	// CanSearchPerQuery is the mean number of can_search RPCs per request in
	// this row's phase — the directly observable work the cache removes.
	CanSearchPerQuery float64 `json:"can_search_per_query,omitempty"`
	// Fetch-cache telemetry: FetchLocalHits counts phase-two fetches the
	// coordinator answered from its own memo (no RPC at all), FetchMemoHits
	// counts fetch RPCs the holder answered from its encoded-response memo
	// (no scan), and FetchInvalidations counts publish-driven invalidation
	// notifications processed by the coordinators they were addressed to.
	FetchLocalHits     float64 `json:"fetch_local_hits,omitempty"`
	FetchMemoHits      float64 `json:"fetch_memo_hits,omitempty"`
	FetchInvalidations float64 `json:"fetch_invalidations,omitempty"`
	// FetchHitRate is the fraction of phase-two fetches served without an
	// RPC; FetchPerQuery is the mean number of fetch RPCs actually issued per
	// request — with the coordinator memo warm, repeat queries drive this
	// toward zero.
	FetchHitRate  float64 `json:"fetch_hit_rate,omitempty"`
	FetchPerQuery float64 `json:"fetch_per_query,omitempty"`
	// CoordPerQuery is the mean number of lookup-coordinator RPCs per request
	// in this row's phase — can_search RPCs sent (messages, not views: a
	// query asks a peer about all of its levels in one, so this is below the
	// row's overlay hops).
	CoordPerQuery float64 `json:"coord_per_query,omitempty"`
	// StreamPublish/ReclusterEvery record the incremental-publish tuning the
	// cluster ran with; PublishRate is the offered rate of the -publish-rate
	// open-loop ingest driver (its completions are the "ingest" row).
	StreamPublish  bool    `json:"stream_publish,omitempty"`
	ReclusterEvery int     `json:"recluster_every,omitempty"`
	PublishRate    float64 `json:"publish_rate,omitempty"`
	// StoreRecPerPublish is the mean number of store_rec announcement RPCs one
	// publish issued during the main phase (set on the "all" row of
	// -stream-publish runs) — the O(changed clusters) payload: an absorb or
	// grow touches one record per level, only splits and re-clusters ship
	// more, versus a full republish shipping every cluster of every level.
	StoreRecPerPublish float64 `json:"store_rec_per_publish,omitempty"`
	// Memory-scale telemetry, set on the "all" row: HeapBytes is the process
	// live heap (runtime HeapAlloc) at the end of the main phase, StoreBytes
	// the summed flat-store footprint of every node's item store, StoreItems
	// the items those stores hold, StoreBytesPerItem their ratio, and
	// GCPauseP99Ms the p99 stop-the-world pause across the phase's GC cycles.
	HeapBytes         uint64  `json:"heap_bytes,omitempty"`
	StoreBytes        int     `json:"store_bytes,omitempty"`
	StoreItems        int     `json:"store_items,omitempty"`
	StoreBytesPerItem float64 `json:"store_bytes_per_item,omitempty"`
	GCPauseP99Ms      float64 `json:"gc_pause_p99_ms,omitempty"`
}

// errorClass buckets one failed request. Routing stalls carry their
// machine-readable detail token across the wire (see route.Detail*); any
// other handler refusal is "remote"; everything else — unreachable endpoint,
// retry budget exhausted, deadline — is "transport".
func errorClass(err error) string {
	if detail := transport.ErrorDetail(err); detail != "" {
		return detail
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return "remote"
	}
	return "transport"
}

type sample struct {
	op  int // 0 publish, 1 range, 2 knn
	dur time.Duration
	err error
}

var opNames = [3]string{"publish", "range", "knn"}

// opFor assigns ops deterministically by request index: 1 publish, then
// alternating range/kNN — a 10/45/45 mix at every scale.
func opFor(i int64) int {
	switch m := i % 10; {
	case m == 0:
		return 0
	case m%2 == 1:
		return 1
	default:
		return 2
	}
}

func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// gcPauseP99 returns the p99 stop-the-world pause in milliseconds across the
// GC cycles between two MemStats snapshots. The runtime's PauseNs ring keeps
// the last 256 cycles, so a very long phase reports the tail's p99 — exactly
// the recent-steady-state number the bench wants.
func gcPauseP99(base, end *runtime.MemStats) float64 {
	n := int(end.NumGC - base.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(end.PauseNs) {
		n = len(end.PauseNs)
	}
	pauses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		pauses = append(pauses, float64(end.PauseNs[(int(end.NumGC)-1-i+len(end.PauseNs)*4)%len(end.PauseNs)]))
	}
	sort.Float64s(pauses)
	return pauses[int(0.99*float64(len(pauses)-1))] / 1e6
}

func main() { os.Exit(run()) }

func run() int {
	nodes := flag.Int("nodes", 8, "cluster size (peers)")
	requests := flag.Int("requests", 10000, "total requests to issue")
	clients := flag.Int("clients", 8, "closed-loop client goroutines")
	transportName := flag.String("transport", "tcp", "substrate: 'tcp' (loopback sockets) or 'chan' (in-process)")
	itemsPerPeer := flag.Int("items", 40, "items per peer in the workload")
	dim := flag.Int("dim", 32, "data dimensionality (power of two)")
	levels := flag.Int("levels", 3, "wavelet levels / overlays")
	clustersPerPeer := flag.Int("clusters", 4, "published clusters per peer per level")
	k := flag.Int("k", 5, "k for kNN requests")
	seed := flag.Int64("seed", 1, "workload and traffic seed")
	churnEvery := flag.Duration("churn", 0, "drive membership churn (joins, leaves, crashes) at this interval; 0 disables")
	alpha := flag.Int("alpha", 0, "concurrent can_search probes per lookup step (0 = node default, 1 = serial)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s for the main run (0 = closed loop)")
	sweep := flag.String("sweep", "", "latency-under-load sweep: comma-separated open-loop rates in req/s (e.g. 200,400,800)")
	sweepDur := flag.Duration("sweep-seconds", 5*time.Second, "duration of each sweep phase")
	zipfS := flag.Float64("zipf", 0, "Zipf exponent s>1 for query-popularity skew (0 = uniform)")
	repeatFrac := flag.Float64("repeat", 0, "fraction of requests repeating the previous request's query")
	cacheViews := flag.Bool("cache-views", false, "enable the per-node lookup memo and fetch caches")
	affinity := flag.Bool("affinity", false, "route each query to a coordinator chosen by query hash so repeats land on warm caches (publishes stay random)")
	streamPublish := flag.Bool("stream-publish", false, "publish through the streaming incremental kernel: O(changed clusters) record deltas announced per publish instead of stale summaries")
	reclusterEvery := flag.Int("recluster-every", 0, "with -stream-publish, re-cluster a node's levels after this many streamed inserts (0 = never)")
	publishRate := flag.Float64("publish-rate", 0, "open-loop publish ingest in items/s running alongside the query load, reported as an 'ingest' row (0 = off)")
	cold := flag.Int("cold", 0, "after the main run and sweeps, clear every node's caches and issue this many distinct first-touch queries, reported as a 'cold' row")
	cpus := flag.Int("cpus", 0, "GOMAXPROCS override for the whole process (0 = leave the runtime default)")
	appendOut := flag.Bool("append", false, "append rows to -out instead of overwriting it")
	out := flag.String("out", "", "also write the rows to this path (e.g. BENCH_serve.json)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the load run to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile at the end of the load run to this path")
	dumpCounters := flag.Bool("dump-counters", false, "print every cluster counter after the main run (RPC mix debugging)")
	flag.Parse()

	sweepRates, err := parseRates(*sweep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-load: -sweep: %v\n", err)
		return 2
	}
	if *zipfS != 0 && *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "hyperm-load: -zipf must be > 1 (or 0 for uniform)")
		return 2
	}
	if *repeatFrac < 0 || *repeatFrac >= 1 {
		fmt.Fprintln(os.Stderr, "hyperm-load: -repeat must be in [0,1)")
		return 2
	}
	if *publishRate < 0 {
		fmt.Fprintln(os.Stderr, "hyperm-load: -publish-rate must be >= 0")
		return 2
	}
	if *cpus > 0 {
		// Before any cluster or client goroutine exists, so the whole run —
		// serving nodes and load generators alike — shares the budget. The
		// benchio envelope's Env stamp records what this changed.
		runtime.GOMAXPROCS(*cpus)
	}

	fmt.Printf("hyperm-load: building %d-node workload (items/peer=%d dim=%d levels=%d seed=%d)\n",
		*nodes, *itemsPerPeer, *dim, *levels, *seed)
	sys, err := experiments.BuildMarkovSystem(experiments.Params{
		Peers: *nodes, ItemsPerPeer: *itemsPerPeer, Dim: *dim,
		Levels: *levels, ClustersPerPeer: *clustersPerPeer, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-load: %v\n", err)
		return 1
	}
	sys.PublishAll()

	var tr transport.Transport
	var listen func(int) string
	switch *transportName {
	case "tcp":
		tr = transport.NewTCP()
		listen = func(int) string { return "127.0.0.1:0" }
	case "chan":
		tr = transport.NewChan()
		listen = func(int) string { return "" }
	default:
		fmt.Fprintf(os.Stderr, "hyperm-load: unknown transport %q\n", *transportName)
		return 2
	}
	defer tr.Close()

	policy := transport.Policy{Timeout: 60 * time.Second, Seed: *seed}
	var mopts membership.Options
	if *churnEvery > 0 {
		// Churn needs the failure detector: crashed nodes' zones must be
		// taken over or availability collapses to the pre-crash topology.
		mopts = membership.Options{ProbeInterval: 100 * time.Millisecond, ProbeTimeout: 500 * time.Millisecond, FailAfter: 3}
	}
	tuning := node.Tuning{
		Alpha:          *alpha,
		CacheViews:     *cacheViews,
		StreamPublish:  *streamPublish,
		ReclusterEvery: *reclusterEvery,
	}
	cl, err := node.StartClusterTuned(sys, tr, listen, policy, mopts, tuning)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-load: %v\n", err)
		return 1
	}
	defer cl.Stop()
	effAlpha := *alpha
	if effAlpha == 0 {
		effAlpha = node.DefaultAlpha
	}
	fmt.Printf("hyperm-load: %d nodes up (%s transport, alpha=%d)\n", len(cl.Nodes), *transportName, effAlpha)

	// Clients target only currently-alive nodes; the churn driver is the sole
	// writer of this list (and of cl itself) once the run starts.
	var addrMu sync.RWMutex
	aliveAddrs := append([]string(nil), cl.Addrs...)
	pickAddr := func(rng *rand.Rand) string {
		addrMu.RLock()
		defer addrMu.RUnlock()
		return aliveAddrs[rng.Intn(len(aliveAddrs))]
	}
	// Streamed publishes need a base clustering, which churn-joined nodes
	// start without — under -stream-publish, publishes target alive founders
	// only (founder 0 never churns, so the list is never empty).
	aliveFounders := append([]string(nil), cl.Addrs...)
	pickPublishAddr := func(rng *rand.Rand) string {
		if !*streamPublish {
			return pickAddr(rng)
		}
		addrMu.RLock()
		defer addrMu.RUnlock()
		return aliveFounders[rng.Intn(len(aliveFounders))]
	}
	// With -affinity, queries (not publishes) route to a coordinator chosen by
	// hashing the query, so a repeated query lands on the node whose caches it
	// warmed — the client-side policy that turns per-node memos into a
	// cluster-wide one. Publishes stay random: they have no locality to exploit.
	pickQueryAddr := func(rng *rand.Rand, qi int) string {
		if !*affinity {
			return pickAddr(rng)
		}
		addrMu.RLock()
		defer addrMu.RUnlock()
		return aliveAddrs[uint(qi)*2654435761%uint(len(aliveAddrs))]
	}

	// Query pool: in-domain centers (stored items) with inter-item radii, so
	// range and kNN requests do real multi-level, multi-peer work.
	poolRng := rand.New(rand.NewSource(*seed + 7))
	const poolSize = 64
	var centers [][]float64
	var radii []float64
	for len(centers) < poolSize {
		_, itemsA := sys.PeerData(poolRng.Intn(*nodes))
		_, itemsB := sys.PeerData(poolRng.Intn(*nodes))
		if len(itemsA) == 0 || len(itemsB) == 0 {
			continue
		}
		q := itemsA[poolRng.Intn(len(itemsA))]
		centers = append(centers, q)
		radii = append(radii, vec.Dist(q, itemsB[poolRng.Intn(len(itemsB))]))
	}

	// Query sequence: request i's query index, drawn up front so the stream is
	// deterministic regardless of which client issues which request. Zipf skew
	// (rank 0 = hottest center) and repeat-previous model the popularity
	// locality of real query streams — the demand signal the caches exploit.
	const querySeqLen = 1 << 16
	queryIdx := make([]int, querySeqLen)
	qrng := rand.New(rand.NewSource(*seed + 13))
	draw := func() int { return qrng.Intn(len(centers)) }
	if *zipfS > 0 {
		z := rand.NewZipf(qrng, *zipfS, 1, uint64(len(centers)-1))
		draw = func() int { return int(z.Uint64()) }
	}
	queryIdx[0] = draw()
	for i := 1; i < querySeqLen; i++ {
		if qrng.Float64() < *repeatFrac {
			queryIdx[i] = queryIdx[i-1]
		} else {
			queryIdx[i] = draw()
		}
	}

	client := node.NewClient(tr, policy)
	ctx := context.Background()

	// Per-phase cache telemetry: cluster-wide counter deltas bracketing the
	// main run and each sweep phase. The baseline is taken before the churn
	// driver starts and deltas only after it stops, so cl.Nodes is never read
	// while Join may grow it.
	prevCC := map[string]float64{}
	clusterCC := func() map[string]float64 {
		agg := map[string]float64{}
		for _, nd := range cl.Nodes {
			for k, v := range nd.Counters() {
				agg[k] += v
			}
		}
		return agg
	}
	ccDelta := func() map[string]float64 {
		cur := clusterCC()
		delta := map[string]float64{}
		for k, v := range cur {
			delta[k] = v - prevCC[k]
		}
		prevCC = cur
		return delta
	}
	prevCC = clusterCC()

	// decorate stamps a row with the workload/tuning configuration and, when
	// phase counters are given, the cache telemetry of that row's phase.
	decorate := func(row *ServeBenchRow, cc map[string]float64, queries int) {
		row.ZipfS, row.RepeatFrac = *zipfS, *repeatFrac
		row.CacheViews, row.Affinity = *cacheViews, *affinity
		row.StreamPublish, row.PublishRate = *streamPublish, *publishRate
		if *streamPublish {
			row.ReclusterEvery = *reclusterEvery
		}
		if cc == nil {
			return
		}
		row.PathHits = cc["cache.path_hit"]
		row.PathMisses = cc["cache.path_miss"]
		if t := row.PathHits + row.PathMisses; t > 0 {
			row.LookupHitRate = row.PathHits / t
		}
		if queries > 0 {
			row.CanSearchPerQuery = cc["rpc.can_search"] / float64(queries)
		}
		row.FetchLocalHits = cc["cache.fetch_local_hit"]
		row.FetchMemoHits = cc["cache.fetch_hit"]
		row.FetchInvalidations = cc["cache.fetch_inval"]
		fetchRPC := cc["rpc.fetch_range"] + cc["rpc.fetch_knn"]
		if t := row.FetchLocalHits + fetchRPC; t > 0 {
			row.FetchHitRate = row.FetchLocalHits / t
		}
		if queries > 0 {
			row.FetchPerQuery = fetchRPC / float64(queries)
		}
		if queries > 0 {
			row.CoordPerQuery = cc["coord.can_search"] / float64(queries)
		}
	}

	// The churn driver: every -churn interval, join a fresh node through
	// founder 0 (never churned), gracefully leave one, or crash one —
	// keeping the alive population between half and double the founding
	// size. Runs until the request stream completes.
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnCounts := map[string]int{}
	if *churnEvery > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			rng := rand.New(rand.NewSource(*seed + 101))
			alive := map[int]bool{}
			for id := range cl.Nodes {
				alive[id] = true
			}
			publish := func() {
				addrMu.Lock()
				aliveAddrs = aliveAddrs[:0]
				aliveFounders = aliveFounders[:0]
				for id, up := range alive {
					if up {
						aliveAddrs = append(aliveAddrs, cl.Addrs[id])
						if id < *nodes {
							aliveFounders = append(aliveFounders, cl.Addrs[id])
						}
					}
				}
				addrMu.Unlock()
			}
			victims := func() []int {
				var out []int
				for id, up := range alive {
					if up && id != 0 {
						out = append(out, id)
					}
				}
				sort.Ints(out)
				return out
			}
			tick := time.NewTicker(*churnEvery)
			defer tick.Stop()
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
				aliveN := 0
				for _, up := range alive {
					if up {
						aliveN++
					}
				}
				op := rng.Intn(4) // 0,1 join; 2 leave; 3 crash
				if aliveN <= *nodes/2+1 {
					op = 0
				} else if aliveN >= 2**nodes {
					op = 2 + rng.Intn(2)
				}
				switch {
				case op < 2:
					points := make([][]float64, sys.Config().Levels)
					bad := false
					for l := range points {
						ov, ok := sys.Overlay(l).(*can.Overlay)
						if !ok {
							bad = true
							break
						}
						pt := make([]float64, ov.Dim())
						for d := range pt {
							pt[d] = rng.Float64()
						}
						points[l] = pt
					}
					if bad {
						continue
					}
					nd, err := cl.Join(ctx, sys, cl.Addrs[0], points)
					if err != nil {
						fmt.Fprintf(os.Stderr, "hyperm-load: churn join: %v\n", err)
						continue
					}
					alive[nd.Peer()] = true
					churnCounts["join"]++
				case op == 2:
					vs := victims()
					if len(vs) == 0 {
						continue
					}
					v := vs[rng.Intn(len(vs))]
					alive[v] = false
					publish() // stop targeting the leaver before it departs
					if err := cl.Nodes[v].Leave(ctx); err != nil {
						fmt.Fprintf(os.Stderr, "hyperm-load: churn leave %d: %v\n", v, err)
					}
					cl.Nodes[v].Stop()
					churnCounts["leave"]++
				default:
					vs := victims()
					if len(vs) == 0 {
						continue
					}
					v := vs[rng.Intn(len(vs))]
					alive[v] = false
					cl.Nodes[v].Stop() // abrupt: detectors must notice
					churnCounts["crash"]++
				}
				publish()
			}
		}()
	}

	var next int64
	var nextID int64 = 1 << 20 // publish ids beyond the corpus range
	results := make([][]sample, *clients)

	// issueOne executes request i of the deterministic mix against a random
	// alive node and times it. Shared by the closed-loop clients, the
	// open-loop dispatcher, and the sweep phases.
	issueOne := func(rng *rand.Rand, i int64) sample {
		op := opFor(i)
		qi := queryIdx[int(i%querySeqLen)]
		var addr string
		if op == 0 {
			addr = pickPublishAddr(rng)
		} else {
			addr = pickQueryAddr(rng, qi)
		}
		var err error
		t0 := time.Now()
		switch op {
		case 0:
			item := append([]float64(nil), centers[qi]...)
			for d := range item {
				item[d] += 0.01 * rng.Float64()
			}
			err = client.Publish(ctx, addr, int(atomic.AddInt64(&nextID, 1)), item)
		case 1:
			_, err = client.Range(ctx, addr, centers[qi], radii[qi], core.RangeOptions{})
		case 2:
			_, err = client.KNN(ctx, addr, centers[qi], *k, core.KNNOptions{})
		}
		return sample{op: op, dur: time.Since(t0), err: err}
	}

	// runOpen offers total requests at the given arrival rate regardless of
	// completion (open loop — queueing delay shows up in the latencies, which
	// is the point of the sweep). Falling behind is repaid immediately, so
	// the average offered rate holds even when a sleep overshoots.
	runOpen := func(rateQPS float64, total int64, seedBase int64) ([]sample, float64) {
		samples := make([]sample, total)
		var wg sync.WaitGroup
		startT := time.Now()
		for i := int64(0); i < total; i++ {
			target := startT.Add(time.Duration(float64(i) / rateQPS * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seedBase + i))
				samples[i] = issueOne(rng, i)
			}(i)
		}
		wg.Wait()
		return samples, time.Since(startT).Seconds()
	}

	// The ingest driver: -publish-rate items/s of open-loop publishes running
	// alongside the query load for the whole main phase — the memory-scale
	// scenario bench-mem measures, a store that grows while it serves. Each
	// publish is dispatched at its scheduled arrival regardless of completion,
	// so queueing delay shows up in the ingest latencies.
	ingestStop := make(chan struct{})
	var ingestWG sync.WaitGroup
	var ingestMu sync.Mutex
	var ingestSamples []sample
	if *publishRate > 0 {
		ingestWG.Add(1)
		go func() {
			defer ingestWG.Done()
			var callWG sync.WaitGroup
			defer callWG.Wait()
			rng := rand.New(rand.NewSource(*seed + 211))
			startT := time.Now()
			for i := int64(0); ; i++ {
				target := startT.Add(time.Duration(float64(i) / *publishRate * float64(time.Second)))
				if d := time.Until(target); d > 0 {
					select {
					case <-ingestStop:
						return
					case <-time.After(d):
					}
				} else {
					select {
					case <-ingestStop:
						return
					default:
					}
				}
				qi := queryIdx[int(i%querySeqLen)]
				item := append([]float64(nil), centers[qi]...)
				for d := range item {
					item[d] += 0.01 * rng.Float64()
				}
				addr := pickPublishAddr(rng)
				id := int(atomic.AddInt64(&nextID, 1))
				callWG.Add(1)
				go func() {
					defer callWG.Done()
					t0 := time.Now()
					err := client.Publish(ctx, addr, id, item)
					ingestMu.Lock()
					ingestSamples = append(ingestSamples, sample{op: 0, dur: time.Since(t0), err: err})
					ingestMu.Unlock()
				}()
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyperm-load: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hyperm-load: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var msBase runtime.MemStats
	runtime.ReadMemStats(&msBase)
	start := time.Now()
	var elapsed float64
	if *rate > 0 {
		samples, secs := runOpen(*rate, int64(*requests), *seed*1000)
		elapsed = secs
		results = [][]sample{samples}
		if *churnEvery == 0 {
			for i, s := range samples {
				if s.err != nil {
					fmt.Fprintf(os.Stderr, "hyperm-load: %s request %d: %v\n", opNames[s.op], i, s.err)
				}
			}
		}
	} else {
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed*1000 + int64(c)))
				for {
					i := atomic.AddInt64(&next, 1) - 1
					if i >= int64(*requests) {
						return
					}
					s := issueOne(rng, i)
					results[c] = append(results[c], s)
					if s.err != nil && *churnEvery == 0 {
						fmt.Fprintf(os.Stderr, "hyperm-load: %s request %d: %v\n", opNames[s.op], i, s.err)
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed = time.Since(start).Seconds()
	}
	close(churnStop)
	close(ingestStop)
	churnWG.Wait()
	ingestWG.Wait()
	// Memory telemetry, captured before the profile-flush GC below so the
	// heap number reflects the serving steady state, not a post-collection
	// floor. The store sums are exact accounting, independent of GC timing.
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)
	storeBytes, storeItems := 0, 0
	for _, nd := range cl.Nodes {
		storeBytes += nd.StoreHeapBytes()
		storeItems += nd.ItemCount()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyperm-load: %v\n", err)
			return 1
		}
		runtime.GC() // flush the final allocation epoch into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "hyperm-load: %v\n", err)
			f.Close()
			return 1
		}
		f.Close()
	}
	mainCC := ccDelta()

	// Aggregate per op class plus the "all" row.
	perOp := map[string][]time.Duration{}
	errs := map[string]int{}
	classes := map[string]map[string]int{}
	for _, rs := range results {
		for _, s := range rs {
			name := opNames[s.op]
			if s.err != nil {
				errs[name]++
				errs["all"]++
				class := errorClass(s.err)
				for _, key := range []string{name, "all"} {
					if classes[key] == nil {
						classes[key] = map[string]int{}
					}
					classes[key][class]++
				}
				continue
			}
			perOp[name] = append(perOp[name], s.dur)
			perOp["all"] = append(perOp["all"], s.dur)
		}
	}
	// Ingest aggregates feed both the "ingest" row and the per-publish
	// announcement cost on the "all" row.
	var ingestDurs []time.Duration
	ingestErrs := 0
	ingestClasses := map[string]int{}
	for _, s := range ingestSamples {
		if s.err != nil {
			ingestErrs++
			ingestClasses[errorClass(s.err)]++
			if *churnEvery == 0 {
				fmt.Fprintf(os.Stderr, "hyperm-load: ingest publish: %v\n", s.err)
			}
			continue
		}
		ingestDurs = append(ingestDurs, s.dur)
	}
	if ingestErrs == 0 {
		ingestClasses = nil
	}
	mainPublishes := len(perOp["publish"]) + errs["publish"] + len(ingestSamples)

	var rows []ServeBenchRow
	for _, op := range []string{"publish", "range", "knn", "all"} {
		durs := perOp[op]
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		row := ServeBenchRow{
			Op: op, Transport: *transportName, Nodes: *nodes, Clients: *clients,
			Requests: len(durs) + errs[op], Errors: errs[op], Seconds: elapsed,
			P50Ms: percentile(durs, 0.50), P95Ms: percentile(durs, 0.95), P99Ms: percentile(durs, 0.99),
			ErrorClasses: classes[op], Alpha: effAlpha, OfferedQPS: *rate,
		}
		if elapsed > 0 {
			row.QPS = float64(row.Requests) / elapsed
		}
		var cc map[string]float64
		if op == "all" {
			cc = mainCC
		}
		decorate(&row, cc, len(perOp["all"])+errs["all"])
		if op == "all" {
			row.HeapBytes = msEnd.HeapAlloc
			row.StoreBytes = storeBytes
			row.StoreItems = storeItems
			if storeItems > 0 {
				row.StoreBytesPerItem = float64(storeBytes) / float64(storeItems)
			}
			row.GCPauseP99Ms = gcPauseP99(&msBase, &msEnd)
			if *streamPublish && mainPublishes > 0 {
				row.StoreRecPerPublish = mainCC["stream.store_rec"] / float64(mainPublishes)
			}
		}
		rows = append(rows, row)
	}
	if *publishRate > 0 {
		sort.Slice(ingestDurs, func(i, j int) bool { return ingestDurs[i] < ingestDurs[j] })
		row := ServeBenchRow{
			Op: "ingest", Transport: *transportName, Nodes: *nodes, Clients: *clients,
			Requests: len(ingestSamples), Errors: ingestErrs, Seconds: elapsed,
			P50Ms: percentile(ingestDurs, 0.50), P95Ms: percentile(ingestDurs, 0.95), P99Ms: percentile(ingestDurs, 0.99),
			ErrorClasses: ingestClasses, Alpha: effAlpha, OfferedQPS: *publishRate,
		}
		if elapsed > 0 {
			row.QPS = float64(len(ingestSamples)) / elapsed
		}
		decorate(&row, nil, 0)
		rows = append(rows, row)
	}
	if *churnEvery > 0 {
		total := len(perOp["all"]) + errs["all"]
		row := ServeBenchRow{
			Op: "availability", Transport: *transportName, Nodes: *nodes, Clients: *clients,
			Requests: total, Errors: errs["all"], Seconds: elapsed,
			ErrorClasses: classes["all"], ChurnEvents: churnCounts,
		}
		if total > 0 {
			row.Availability = float64(total-errs["all"]) / float64(total)
		}
		decorate(&row, nil, 0)
		rows = append(rows, row)
	}

	// Latency-under-load sweep: offer each requested rate open-loop on the
	// warm cluster and report one qps→latency curve point per rate. Queueing
	// delay beyond the service capacity shows up in the percentiles — the
	// saturation knee the closed-loop aggregate row cannot show.
	sweepErrs := 0
	for si, r := range sweepRates {
		total := int64(r * sweepDur.Seconds())
		if total < 1 {
			total = 1
		}
		fmt.Printf("hyperm-load: sweep %.0f req/s for %s (%d requests)\n", r, *sweepDur, total)
		samples, secs := runOpen(r, total, *seed*1000000+int64(si)*1000000)
		var durs []time.Duration
		nerr := 0
		sweepClasses := map[string]int{}
		for _, s := range samples {
			if s.err != nil {
				nerr++
				sweepClasses[errorClass(s.err)]++
				continue
			}
			durs = append(durs, s.dur)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		if nerr == 0 {
			sweepClasses = nil
		}
		sweepErrs += nerr
		row := ServeBenchRow{
			Op: "sweep", Transport: *transportName, Nodes: *nodes, Clients: *clients,
			Requests: len(samples), Errors: nerr, Seconds: secs,
			P50Ms: percentile(durs, 0.50), P95Ms: percentile(durs, 0.95), P99Ms: percentile(durs, 0.99),
			ErrorClasses: sweepClasses, Alpha: effAlpha, OfferedQPS: r,
		}
		if secs > 0 {
			row.QPS = float64(len(samples)) / secs
		}
		decorate(&row, ccDelta(), len(samples))
		rows = append(rows, row)
	}

	// Cold phase: clear every node's caches — lookup memo, fetch directory,
	// client fetch cache — then issue -cold distinct never-repeated
	// queries closed-loop. Every lookup is a first touch, so the row's
	// CoordPerQuery is the Θ(N) first-touch cost, measured on the same cluster
	// as the warm rows.
	coldErrs := 0
	if *cold > 0 {
		for _, nd := range cl.Nodes {
			nd.ClearCaches()
		}
		ccDelta() // re-baseline: cold telemetry must not inherit warm-phase counters
		coldRng := rand.New(rand.NewSource(*seed + 23))
		coldQ := make([][]float64, *cold)
		coldR := make([]float64, *cold)
		for i := range coldQ {
			// Distinct center per query — a pool center plus a tiny jitter —
			// so no two cold queries can share a lookup memo entry.
			q := append([]float64(nil), centers[i%len(centers)]...)
			for d := range q {
				q[d] += 1e-6 * (1 + coldRng.Float64())
			}
			coldQ[i] = q
			coldR[i] = radii[i%len(radii)]
		}
		fmt.Printf("hyperm-load: cold phase: caches cleared, %d first-touch queries\n", *cold)
		var coldNext int64
		coldSamples := make([][]sample, *clients)
		coldStart := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed*2000 + int64(c)))
				for {
					i := atomic.AddInt64(&coldNext, 1) - 1
					if i >= int64(*cold) {
						return
					}
					addr := pickAddr(rng)
					var err error
					t0 := time.Now()
					if i%2 == 0 {
						_, err = client.Range(ctx, addr, coldQ[i], coldR[i], core.RangeOptions{})
					} else {
						_, err = client.KNN(ctx, addr, coldQ[i], *k, core.KNNOptions{})
					}
					coldSamples[c] = append(coldSamples[c], sample{op: 1 + int(i%2), dur: time.Since(t0), err: err})
				}
			}(c)
		}
		wg.Wait()
		coldSecs := time.Since(coldStart).Seconds()
		var durs []time.Duration
		coldClasses := map[string]int{}
		for _, cs := range coldSamples {
			for _, s := range cs {
				if s.err != nil {
					coldErrs++
					coldClasses[errorClass(s.err)]++
					if *churnEvery == 0 {
						fmt.Fprintf(os.Stderr, "hyperm-load: cold %s request: %v\n", opNames[s.op], s.err)
					}
					continue
				}
				durs = append(durs, s.dur)
			}
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		if coldErrs == 0 {
			coldClasses = nil
		}
		row := ServeBenchRow{
			Op: "cold", Transport: *transportName, Nodes: *nodes, Clients: *clients,
			Requests: *cold, Errors: coldErrs, Seconds: coldSecs,
			P50Ms: percentile(durs, 0.50), P95Ms: percentile(durs, 0.95), P99Ms: percentile(durs, 0.99),
			ErrorClasses: coldClasses, Alpha: effAlpha,
		}
		if coldSecs > 0 {
			row.QPS = float64(*cold) / coldSecs
		}
		decorate(&row, ccDelta(), *cold)
		fmt.Printf("hyperm-load: cold path: %.2f coordinator RPCs/query (can_search)\n", row.CoordPerQuery)
		rows = append(rows, row)
	}

	workload := "uniform"
	if *zipfS > 0 {
		workload = fmt.Sprintf("zipf(s=%g)", *zipfS)
	}
	if *repeatFrac > 0 {
		workload += fmt.Sprintf("+repeat(%g)", *repeatFrac)
	}
	cacheDesc := "off"
	if *cacheViews {
		cacheDesc = "on"
	}
	if *affinity {
		workload += "+affinity"
	}
	fmt.Printf("\nServing throughput — %d requests, %d clients, %d nodes, %s transport, alpha=%d, queries=%s, cache=%s\n",
		*requests, *clients, *nodes, *transportName, effAlpha, workload, cacheDesc)
	fmt.Printf("%-8s %-9s %-9s %-7s %-10s %-9s %-9s %-9s\n", "op", "offered", "requests", "errors", "qps", "p50_ms", "p95_ms", "p99_ms")
	for _, r := range rows {
		if r.Op == "availability" {
			continue // summarized separately below
		}
		offered := "-"
		if r.OfferedQPS > 0 {
			offered = fmt.Sprintf("%.0f", r.OfferedQPS)
		}
		fmt.Printf("%-8s %-9s %-9d %-7d %-10.1f %-9.3f %-9.3f %-9.3f\n",
			r.Op, offered, r.Requests, r.Errors, r.QPS, r.P50Ms, r.P95Ms, r.P99Ms)
	}

	{
		var allRow *ServeBenchRow
		for i := range rows {
			if rows[i].Op == "all" {
				allRow = &rows[i]
			}
		}
		fmt.Printf("\nmemory: heap=%.1f MiB, stores=%.1f MiB / %d items = %.1f B/item, gc_pause_p99=%.3f ms\n",
			float64(allRow.HeapBytes)/(1<<20), float64(allRow.StoreBytes)/(1<<20),
			allRow.StoreItems, allRow.StoreBytesPerItem, allRow.GCPauseP99Ms)
		if *streamPublish {
			fmt.Printf("stream publish: %d mix + %d ingested publishes, %.0f store_rec announcements (%.2f per publish)\n",
				len(perOp["publish"])+errs["publish"], len(ingestSamples),
				mainCC["stream.store_rec"], allRow.StoreRecPerPublish)
		}
	}

	if *cacheViews {
		var allRow *ServeBenchRow
		for i := range rows {
			if rows[i].Op == "all" {
				allRow = &rows[i]
			}
		}
		fmt.Printf("\nlookup-memo: hits=%.0f misses=%.0f hit-rate=%.1f%% can_search/query=%.2f\n",
			allRow.PathHits, allRow.PathMisses, 100*allRow.LookupHitRate, allRow.CanSearchPerQuery)
		fmt.Printf("fetch: local_hits=%.0f holder_memo_hits=%.0f invalidations=%.0f "+
			"hit-rate=%.1f%% fetch-rpc/query=%.2f\n",
			allRow.FetchLocalHits, allRow.FetchMemoHits, allRow.FetchInvalidations,
			100*allRow.FetchHitRate, allRow.FetchPerQuery)
	}

	if *dumpCounters {
		names := make([]string, 0, len(mainCC))
		for name := range mainCC {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("\ncluster counters (main run):")
		for _, name := range names {
			fmt.Printf("  %-24s %12.0f\n", name, mainCC[name])
		}
	}

	if *out != "" {
		write := benchio.Write
		if *appendOut {
			write = benchio.Append
		}
		if err := write(*out, "serve", rows); err != nil {
			fmt.Fprintf(os.Stderr, "hyperm-load: %v\n", err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	if *churnEvery > 0 {
		last := rows[len(rows)-1]
		fmt.Printf("\navailability under churn: %.4f (%d/%d ok; churn: join=%d leave=%d crash=%d)\n",
			last.Availability, last.Requests-last.Errors, last.Requests,
			churnCounts["join"], churnCounts["leave"], churnCounts["crash"])
		// Churn runs tolerate mid-takeover failures; a run where nothing
		// succeeded still means the cluster was down, not just churning.
		if last.Requests > 0 && last.Requests == last.Errors {
			fmt.Fprintln(os.Stderr, "hyperm-load: every request failed under churn")
			return 1
		}
		return 0
	}
	if errs["all"] > 0 {
		var parts []string
		for class, n := range classes["all"] {
			parts = append(parts, fmt.Sprintf("%s=%d", class, n))
		}
		sort.Strings(parts)
		fmt.Fprintf(os.Stderr, "hyperm-load: %d requests failed (%s)\n",
			errs["all"], strings.Join(parts, " "))
		return 1
	}
	if ingestErrs > 0 {
		fmt.Fprintf(os.Stderr, "hyperm-load: %d ingest publishes failed\n", ingestErrs)
		return 1
	}
	if sweepErrs > 0 {
		fmt.Fprintf(os.Stderr, "hyperm-load: %d sweep requests failed\n", sweepErrs)
		return 1
	}
	if coldErrs > 0 {
		fmt.Fprintf(os.Stderr, "hyperm-load: %d cold requests failed\n", coldErrs)
		return 1
	}
	return 0
}

// parseRates parses the -sweep flag: a comma-separated list of positive
// open-loop rates in requests/second.
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		var r float64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &r); err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		out = append(out, r)
	}
	return out, nil
}
