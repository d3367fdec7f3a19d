package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"hyperm"
)

// The disseminate workload runs in-process through the public hyperm facade:
// the timed unit is one Network.Publish() of the whole corpus on a fresh
// Network; between publishes the published network answers a slice of
// Range/KNN/Insert calls. No node, transport or cache code runs.

// corpus is the world plus its per-peer slices in the shape AddItems takes.
type corpus struct {
	*world
	ids  [][]int
	vecs [][][]float64
}

func buildDisseminateCorpus(sp spec) (*corpus, error) {
	w, err := buildCorpus(sp)
	if err != nil {
		return nil, err
	}
	c := &corpus{world: w, ids: make([][]int, sp.Peers), vecs: make([][][]float64, sp.Peers)}
	for p := 0; p < sp.Peers; p++ {
		c.ids[p], c.vecs[p] = w.sys.PeerData(p)
	}
	return c, nil
}

// published is one freshly published network and what publishing it cost. It
// is the in-process target of the request stream.
type published struct {
	net      *hyperm.Network
	report   hyperm.PublishReport
	add, pub time.Duration
}

func (p published) publish(_ context.Context, node, id int, item []float64) error {
	return p.net.Insert(node, id, item)
}

func (p published) rangeQuery(_ context.Context, node int, q []float64, eps float64) ([]int, error) {
	a, err := p.net.Range(node, q, eps)
	return a.Items, err
}

func (p published) knnQuery(_ context.Context, node int, q []float64, k int) ([]int, error) {
	a, err := p.net.KNN(node, q, k)
	return a.Items, err
}

func (c *corpus) publish() (published, error) {
	sp := c.sp
	net, err := hyperm.New(hyperm.Options{Peers: sp.Peers, Dim: sp.Dim, Levels: sp.Levels,
		ClustersPerPeer: sp.Clusters, Seed: fixtureSeed, Parallelism: 0})
	if err != nil {
		return published{}, err
	}
	out := published{net: net}
	t0 := time.Now()
	for p := range c.ids {
		if len(c.ids[p]) == 0 {
			continue
		}
		if err := net.AddItems(p, c.ids[p], c.vecs[p]); err != nil {
			return published{}, err
		}
	}
	out.add = time.Since(t0)
	t0 = time.Now()
	out.report, err = net.Publish()
	out.pub = time.Since(t0)
	return out, err
}

// setupDisseminate generates the corpus and runs the pipeline once so lazy
// set-up (page faults, allocator growth) is paid before timing. The runner's
// target is the network just published.
func setupDisseminate(sp spec, seed int64, rec *recorder) (*corpus, *runner, published, error) {
	c, err := buildDisseminateCorpus(sp)
	if err != nil {
		return nil, nil, published{}, err
	}
	pub, err := c.publish()
	return c, newRunner(c.world, pub, seed, rec), pub, err
}

func disseminateEndToEnd(ctx context.Context, sp spec, seed int64, seconds float64) (runResult, error) {
	res := runResult{Metrics: metricSet{}}
	var setups []float64
	var c *corpus
	var r *runner
	var first published
	for rep := 0; rep < setupReps; rep++ {
		c, r, first = nil, nil, published{}
		runtime.GC()
		t0 := time.Now()
		var err error
		if c, r, first, err = setupDisseminate(sp, seed, nil); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	g := r.gate(ctx, buildTruth(c.world))
	res.countGate(g)

	var itemsPerS []float64
	var all phase
	next := new(atomic.Int64)
	runtime.GC()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		cur, err := c.publish()
		if err != nil {
			return res, err
		}
		res.Attempted++
		// Every repeat publishes the same corpus: the hop count must repeat.
		if cur.report.OverlayHops != first.report.OverlayHops || cur.report.Clusters != first.report.Clusters {
			res.count(0, 1, fmt.Errorf("publish repeat %d spent %d hops on %d clusters, the first %d on %d",
				len(itemsPerS), cur.report.OverlayHops, cur.report.Clusters, first.report.OverlayHops, first.report.Clusters))
		}
		itemsPerS = append(itemsPerS, float64(cur.report.Items)/cur.pub.Seconds())
		r.t = cur
		p := r.closedLoop(ctx, 1, next, -1, time.Now().Add(time.Duration(sp.QuerySlice*float64(time.Second))))
		all.samples = append(all.samples, p.samples...)
		all.elapsed += p.elapsed
	}
	r.t = first // drop the last repeat's network: one network is the live state
	heap := liveHeapMiB()
	nf := res.countPhase(all)

	sorted := sortedCopy(itemsPerS)
	m := res.Metrics
	set(m, "setup_s", median(setups), len(setups))
	set(m, "qps", float64(len(all.samples)-nf)/all.elapsed.Seconds(), len(all.samples)-nf)
	set(m, "items_per_s", median(sorted), len(sorted))
	res.latencyMetrics(all.byOp(opRange), all.byOp(opKNN), all.byOp(opPublish))
	set(m, "hops_per_item", first.report.HopsPerItem(), first.report.Items)
	set(m, "range_recall", g.rangeRecall, sp.Gate)
	set(m, "knn_recall", g.knnRecall, sp.Gate)
	set(m, "heap_mib", heap, 0)
	res.notef("%d timed Network.Publish() of %d items (%d clusters, %d hops each); items_per_s min %.0f max %.0f",
		len(sorted), first.report.Items, first.report.Clusters, first.report.OverlayHops, sorted[0], sorted[len(sorted)-1])
	return res, nil
}

// disseminateTraced times the facade calls as spans (each publish of the
// corpus, and every Range, KNN and Insert call) and runs the layer probes;
// there are no RPCs to trace.
func disseminateTraced(ctx context.Context, sp spec, env environment, seed int64, seconds float64) (runResult, error) {
	res := runResult{Metrics: metricSet{}}
	m := res.Metrics
	rec := newRecorder()
	c, r, _, err := setupDisseminate(sp, seed, rec)
	if err != nil {
		return res, err
	}
	res.countGate(r.gate(ctx, buildTruth(c.world)))

	rp := startRuntimeProbe()
	var adds, pubs latencies
	var all phase
	next := new(atomic.Int64)
	perSlice := int64(math.Ceil(100 * seconds / 3))
	for rep := int64(0); rep < 3; rep++ {
		end := rec.beginRequest(-1-rep, "publish_all")
		cur, err := c.publish()
		end()
		if err != nil {
			return res, err
		}
		res.Attempted++
		adds, pubs = append(adds, ms(cur.add)), append(pubs, ms(cur.pub))
		r.t = cur
		p := r.closedLoop(ctx, 1, next, (rep+1)*perSlice, time.Time{})
		all.samples = append(all.samples, p.samples...)
	}
	rp.finish(m, len(all.samples))
	res.countPhase(all)

	set(m, "hyperm.add_items_ms", median(adds), len(adds))
	set(m, "hyperm.publish_ms", median(pubs), len(pubs))
	queries := append(all.byOp(opRange), all.byOp(opKNN)...)
	set(m, "trace.client_ms", median(queries), len(queries))
	path := filepath.Join(env.OutDir, "trace-"+sp.Name+".json")
	if err := writeTrace(path, sp.Name, seed, rec.drain()); err != nil {
		return res, err
	}
	res.notef("traced facade calls: %d publishes, %d requests -> %s", len(pubs), len(all.samples), path)
	return res, layerProbes(m, env.ProbeBudget)
}
