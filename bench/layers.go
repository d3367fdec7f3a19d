package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyperm/internal/can"
	"hyperm/internal/cluster"
	"hyperm/internal/core"
	"hyperm/internal/geometry"
	"hyperm/internal/membership"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/store"
	"hyperm/internal/transport"
	"hyperm/internal/viewcache"
	"hyperm/internal/wavelet"
)

// Layer probes: each layer's public functions timed from outside on a fixed
// fixture. They do not depend on the workload or the seed, so every traced run
// reports the same probes and a change to one layer shows here whether or not
// a workload happens to lean on it.

// defaultProbeBudget is the time each probe may measure for.
const defaultProbeBudget = 60 * time.Millisecond

// prober carries the per-probe time budget (the tests shrink it).
type prober struct {
	budget time.Duration
	m      metricSet
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink atomic.Int64

// time calls f in batches for about the budget and returns the median
// per-call time over the batches, with the number of calls made.
func (pr prober) time(f func()) (perCall time.Duration, calls int) {
	t0 := time.Now()
	f()
	one := time.Since(t0)
	if one <= 0 {
		one = time.Nanosecond
	}
	const batches = 7
	n := int(pr.budget / batches / one)
	if n < 1 {
		n = 1
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(per)), batches * n
}

// allocsPer returns the mean number of heap allocations per call of f.
func allocsPer(runs int, f func()) float64 {
	f() // warm any lazy state
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}

func layerProbes(m metricSet, budget time.Duration) error {
	pr := prober{budget: budget, m: m}
	rng := rand.New(rand.NewSource(fixtureSeed))
	if err := pr.overlay(rng); err != nil {
		return err
	}
	if err := pr.transport(); err != nil {
		return err
	}
	pr.codecs(rng)
	pr.viewcache()
	pr.geometry(rng)
	pr.kernels(rng)
	return pr.core(rng)
}

// probeRef is the payload every probe record carries: the only payload the
// serving runtime stores, so the membership codec accepts it.
func probeRef(i int, rng *rand.Rand) core.ClusterRef {
	c := make([]float64, 4)
	for d := range c {
		c[d] = rng.Float64()
	}
	return core.ClusterRef{Peer: i % 64, Level: 2, Index: i, Center: c, Radius: 0.1, Items: 10}
}

// overlay times can.Overlay inserts and searches, route.RunAlpha over an
// in-memory view source cut from the same 64-node overlay, and
// membership.Manager.SearchView on one node's slice of it.
func (pr prober) overlay(rng *rand.Rand) error {
	m := pr.m
	const nodes, dim = 64, 4
	ov, err := can.Build(can.Config{Nodes: nodes, Dim: dim, Rng: rand.New(rand.NewSource(fixtureSeed))})
	if err != nil {
		return err
	}
	key := func() []float64 {
		k := make([]float64, dim)
		for d := range k {
			k[d] = rng.Float64()
		}
		return k
	}
	i, hops := 0, 0
	per, n := pr.time(func() {
		hops += ov.InsertSphere(i%nodes, overlay.Entry{Key: key(), Radius: 0.05, Payload: probeRef(i, rng)})
		i++
	})
	set(m, "can.insert_sphere_us", us(per), n)
	set(m, "can.insert_hops", float64(hops)/float64(i), i)

	keys := make([][]float64, 64)
	for j := range keys {
		keys[j] = key()
	}
	i = 0
	per, n = pr.time(func() {
		res, _ := ov.SearchSphere(i%nodes, keys[i%len(keys)], 0.1)
		sink.Add(int64(len(res)))
		i++
	})
	set(m, "can.search_sphere_us", us(per), n)

	views := make([]route.NodeView, nodes)
	for id := range views {
		views[id] = ov.View(id)
	}
	var fetched atomic.Int64
	src := route.SourceFunc(func(id int) (route.NodeView, error) {
		fetched.Add(1)
		return views[id], nil
	})
	i = 0
	var runErr error
	per, n = pr.time(func() {
		s := route.NewSearch(views[i%nodes], keys[i%len(keys)], 0.1, 8*nodes+16)
		res, _, err := route.RunAlpha(s, src, 3)
		if err != nil {
			runErr = err
		}
		sink.Add(int64(len(res)))
		i++
	})
	if runErr != nil {
		return fmt.Errorf("bench: route probe: %w", runErr)
	}
	set(m, "route.run_alpha_us_per_search", us(per), n)
	set(m, "route.views_per_search", float64(fetched.Load())/float64(i), i)

	// One node's slice as the membership manager holds it.
	busiest := 0
	for id, v := range views {
		if len(v.Owned)+len(v.Replicas) > len(views[busiest].Owned)+len(views[busiest].Replicas) {
			busiest = id
		}
	}
	v := views[busiest]
	ls := membership.LevelState{Zones: v.Zones, Owned: v.Owned, Replicas: v.Replicas}
	for _, nb := range v.Neighbors {
		ls.Neighbors = append(ls.Neighbors, membership.Neighbor{ID: nb.ID, Zones: nb.Zones})
	}
	mgr := membership.NewManager(busiest, nodes, []membership.LevelState{ls}, nil, membership.Options{})
	i = 0
	per, n = pr.time(func() {
		k := keys[i%len(keys)]
		_, _, owned, replicas, _ := mgr.SearchView(0, func(rec route.RecordView) bool {
			return route.TorusDist(rec.Entry.Key, k) <= rec.Entry.Radius+0.1
		})
		sink.Add(int64(len(owned) + len(replicas)))
		i++
	})
	set(m, "membership.search_view_us", us(per), n)
	return nil
}

// echoServer serves one endpoint that returns the request body.
func echoServer(tr transport.Transport, addr string) (transport.Server, error) {
	return tr.Serve(addr, func(_ context.Context, req transport.Request) (transport.Response, error) {
		return transport.Response{Body: req.Body}, nil
	})
}

// transport times round trips on TCP loopback (16 B and 64 KiB, one in
// flight), throughput with 8 calls in flight on the one multiplexed
// connection, and the same 16 B round trip on the in-process transport, which
// has no syscalls.
func (pr prober) transport() error {
	m := pr.m
	ctx := context.Background()
	rtt := func(tr transport.Transport, addr string, size int) (time.Duration, int, error) {
		body := make([]byte, size)
		var callErr error
		per, n := pr.time(func() {
			resp, err := tr.Call(ctx, addr, transport.Request{Method: "echo", Body: body})
			if err != nil {
				callErr = err
			}
			sink.Add(int64(len(resp.Body)))
		})
		return per, n, callErr
	}

	tcp := transport.NewTCP()
	defer tcp.Close()
	srv, err := echoServer(tcp, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	per, n, err := rtt(tcp, srv.Addr(), 16)
	if err != nil {
		return fmt.Errorf("bench: transport probe: %w", err)
	}
	set(m, "transport.rtt_us_small", us(per), n)
	if per, n, err = rtt(tcp, srv.Addr(), 64<<10); err != nil {
		return fmt.Errorf("bench: transport probe: %w", err)
	}
	set(m, "transport.rtt_us_64k", us(per), n)

	// 8 in flight: what one query's alpha x levels keeps on a connection.
	const inFlight = 8
	body := make([]byte, 16)
	var calls atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(2 * pr.budget)
	t0 := time.Now()
	for g := 0; g < inFlight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := tcp.Call(ctx, srv.Addr(), transport.Request{Method: "echo", Body: body}); err != nil {
					return
				}
				calls.Add(1)
			}
		}()
	}
	wg.Wait()
	set(m, "transport.calls_per_s_pipelined", float64(calls.Load())/time.Since(t0).Seconds(), int(calls.Load()))

	ch := transport.NewChan()
	defer ch.Close()
	csrv, err := echoServer(ch, "echo")
	if err != nil {
		return err
	}
	defer csrv.Close()
	if per, n, err = rtt(ch, csrv.Addr(), 16); err != nil {
		return fmt.Errorf("bench: chan transport probe: %w", err)
	}
	set(m, "transport.chan_rtt_us", us(per), n)
	return nil
}

// codecs times the float codec on a 256-vector message and the
// membership record codec on 256 records.
func (pr prober) codecs(rng *rand.Rand) {
	m := pr.m
	const vectors, dim = 256, 32
	rows := make([][]float64, vectors)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for d := range rows[i] {
			rows[i][d] = rng.Float64()
		}
	}
	encode := func() []byte {
		var e transport.Encoder
		e.Grow(vectors * (dim*8 + 4))
		for _, r := range rows {
			e.Floats(r)
		}
		return e.Bytes()
	}
	per, n := pr.time(func() { sink.Add(int64(len(encode()))) })
	set(m, "transport.encode_ns_per_float", float64(per)/(vectors*dim), n)
	msg := encode()
	decode := func() {
		d := transport.NewDecoder(msg)
		for i := 0; i < vectors; i++ {
			sink.Add(int64(len(d.FloatsShared())))
		}
	}
	per, n = pr.time(decode)
	set(m, "transport.decode_shared_ns_per_float", float64(per)/(vectors*dim), n)
	set(m, "transport.decode_allocs_per_msg", allocsPer(50, decode), 50)

	recs := make([]route.RecordView, 256)
	for i := range recs {
		recs[i] = route.RecordView{Seq: i, Entry: overlay.Entry{Key: rows[i][:4], Radius: 0.05, Payload: probeRef(i, rng)}}
	}
	var e transport.Encoder
	if err := membership.EncodeRecords(&e, recs); err != nil {
		panic(err) // probeRef is a ClusterRef; the codec accepts nothing else
	}
	recMsg := e.Bytes()
	decodeRecs := func() { sink.Add(int64(len(membership.DecodeRecords(transport.NewDecoder(recMsg))))) }
	per, n = pr.time(func() {
		var e transport.Encoder
		_ = membership.EncodeRecords(&e, recs) // cannot fail: see above
		decodeRecs()
	})
	set(m, "membership.records_codec_us", us(per), n)
	set(m, "membership.records_decode_allocs", allocsPer(50, decodeRecs), 50)
}

func (pr prober) viewcache() {
	m := pr.m
	c := viewcache.New(1, viewcache.Options{})
	v := viewcache.View{NodeView: route.NodeView{ID: 1}, Version: 1}
	for id := 0; id < 64; id++ {
		c.Put(0, id, v, 1)
	}
	i := 0
	per, n := pr.time(func() {
		_, out, _ := c.Get(0, i%64, 1)
		sink.Add(int64(out))
		i++
	})
	set(m, "viewcache.get_hit_ns", float64(per), n)
	per, n = pr.time(func() {
		c.Put(0, i%64, v, 1)
		i++
	})
	set(m, "viewcache.put_ns", float64(per), n)
	keys := make([][]byte, 64)
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("%040d", k)) // 5 float64s: a 4-d key plus a radius
		c.PutSearch(0, keys[k], nil, 3, 1)
	}
	per, n = pr.time(func() {
		_, hops, _ := c.GetSearch(0, keys[i%64], 1)
		sink.Add(int64(hops))
		i++
	})
	set(m, "viewcache.get_search_ns", float64(per), n)
}

// geometry times the Eq 8 radius solver at the subspace dimensions a
// 4-level query solves (1, 1, 2, 4) over 50 spheres each.
func (pr prober) geometry(rng *rand.Rand) {
	m := pr.m
	dims := []int{1, 1, 2, 4}
	sets := make([][]geometry.SphereAt, 16)
	for i := range sets {
		sets[i] = geometry.RandomSpheres(50, rng)
	}
	i := 0
	evals := geometry.RegIncBetaEvals()
	per, n := pr.time(func() {
		eps := geometry.SolveEpsForCount(dims[i%len(dims)], 10, sets[i%len(sets)])
		sink.Add(int64(eps))
		i++
	})
	set(m, "geometry.solve_eps_us", us(per), n)
	set(m, "geometry.beta_evals_per_solve", float64(geometry.RegIncBetaEvals()-evals)/float64(i), i)
}

func (pr prober) kernels(rng *rand.Rand) {
	m := pr.m
	const dim = 128
	x := make([]float64, dim)
	for d := range x {
		x[d] = rng.Float64()
	}
	per, n := pr.time(func() { sink.Add(int64(wavelet.Decompose(x, wavelet.Averaging).NumSubspaces())) })
	set(m, "wavelet.decompose_ns_per_item", float64(per), n)

	const points, k = 1000, 10
	data := cluster.MixtureData(points, 8, k, rng)
	run := func() {
		res := cluster.KMeans(data, cluster.Config{K: k, Rng: rand.New(rand.NewSource(fixtureSeed))})
		sink.Add(int64(len(res.Clusters)))
	}
	per, n = pr.time(run)
	set(m, "cluster.kmeans_ns_per_point", float64(per)/points, n)
	set(m, "cluster.kmeans_allocs_per_run", allocsPer(10, run), 10)
}

// core times the holder-side scans on 1k- and 50k-row stores, the
// streaming-publish kernel, and whole in-process queries on the serve-uniform
// topology (the query cost with no network at all).
func (pr prober) core(rng *rand.Rand) error {
	m := pr.m
	uniform, _ := findSpec("serve-uniform")
	w, err := buildWorld(uniform)
	if err != nil {
		return err
	}
	dim := uniform.Dim
	// Rows are corpus vectors with jitter: the distance distribution the
	// serving stores have, so a pool radius selects what it selects there.
	row := func(i int) []float64 {
		return jitterItem(fixtureSeed, 98, uint64(i), w.data[i%len(w.data)])
	}
	rows := make([][]float64, 50000)
	for j := range rows {
		rows[j] = row(j)
	}
	big := store.New(dim)
	t0 := time.Now()
	for j, r := range rows {
		big.Append(j, r)
	}
	set(m, "store.append_ns_per_row", float64(time.Since(t0))/float64(len(rows)), len(rows))
	set(m, "store.bytes_per_item", float64(big.HeapBytes())/float64(big.Len()), big.Len())
	small := store.New(dim)
	for j := 0; j < 1000; j++ {
		small.Append(j, big.Vec(j))
	}

	i, results := 0, 0
	scan := func(name string, st *store.Store) {
		i = 0
		per, n := pr.time(func() {
			q := i % len(w.pool.centers)
			ids := core.LocalRange(w.pool.centers[q], w.pool.radii[q], st)
			results += len(ids)
			i++
		})
		set(m, name, us(per), n)
	}
	scan("core.local_range_us_1k", small)
	results = 0
	scan("core.local_range_us_50k", big)
	if results > 0 {
		set(m, "core.rows_scanned_per_result", float64(i)*float64(big.Len())/float64(results), i)
	}
	i = 0
	per, n := pr.time(func() {
		sink.Add(int64(len(core.LocalKNN(w.pool.centers[i%len(w.pool.centers)], uniform.K, big))))
		i++
	})
	set(m, "core.local_knn_us_50k", us(per), n)

	i = 0
	per, n = pr.time(func() {
		q := i % len(w.pool.centers)
		sink.Add(int64(len(w.sys.RangeQuery(i%uniform.Peers, w.pool.centers[q], w.pool.radii[q], core.RangeOptions{}).Items)))
		i++
	})
	set(m, "core.engine_range_us", us(per), n)
	i = 0
	per, n = pr.time(func() {
		q := i % len(w.pool.centers)
		sink.Add(int64(len(w.sys.KNNQuery(i%uniform.Peers, w.pool.centers[q], uniform.K, core.KNNOptions{}).Items)))
		i++
	})
	set(m, "core.engine_knn_us", us(per), n)

	// Streaming publish kernel on peer 0's published summaries, fed items
	// near peer 0's own (the stream a founder sees) under serve-ingest's
	// re-cluster period.
	cfg := w.sys.Config()
	sp := &core.StreamPublisher{
		Peer: 0, Convention: cfg.Convention, ClustersPerPeer: cfg.ClustersPerPeer,
		Mappers:   core.BuildKeyMappers(w.sys.Bounds()),
		Published: w.sys.PublishedAll(0), PubSeqs: w.sys.PublishedSeqs(0),
		State: core.NewStreamState(core.StreamTuning{ReclusterEvery: 1000}, cfg.Levels),
	}
	st := w.sys.PeerStore(0)
	_, own := w.sys.PeerData(0)
	i, deltas := 0, 0
	per, n = pr.time(func() {
		item := jitterItem(fixtureSeed, 97, uint64(i), own[i%len(own)])
		st.Append(1<<30+i, item)
		deltas += len(sp.Insert(item, st))
		i++
	})
	set(m, "core.stream_insert_us", us(per), n)
	set(m, "core.stream_deltas_per_insert", float64(deltas)/float64(i), i)
	return nil
}
