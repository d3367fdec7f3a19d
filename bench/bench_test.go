package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"hyperm/internal/core"
)

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 40},
		{Start: 30, End: 60}, // overlaps the first: [10,60] counts once
		{Start: 70, End: 80},
		{Start: 90, End: 120}, // clipped to the parent's end
		{Start: 45, End: 50},  // inside the merged run
	}
	if got := covered(parent.Start, parent.End, children); got != 70 {
		t.Fatalf("covered = %d, want 70 (union, not the sum 125)", got)
	}
	if got := selfTime(parent, children); got != 30 {
		t.Fatalf("selfTime = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestSummarizeLinksRequestCallHandler(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kindRequest, Node: clientNode, Method: "range", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Kind: kindCall, Node: clientNode, Method: "range", Start: 10, End: 990, BytesOut: 100, BytesIn: 50},
		{ID: 3, Parent: 2, Kind: kindHandler, Node: 0, Method: "range", Start: 50, End: 950},
		{ID: 4, Parent: 3, Kind: kindCall, Node: 0, Method: "can_search", Start: 100, End: 400, BytesOut: 10, BytesIn: 20},
		{ID: 5, Parent: 4, Kind: kindHandler, Node: 1, Method: "can_search", Start: 150, End: 350},
		{ID: 6, Parent: 3, Kind: kindCall, Node: 0, Method: "can_search", Start: 300, End: 600, BytesOut: 10, BytesIn: 20},
		{ID: 7, Parent: 6, Kind: kindHandler, Node: 2, Method: "can_search", Start: 350, End: 550},
		{ID: 8, Parent: 99, Kind: kindCall, Node: 3, Method: "fetch_knn", Start: 0, End: 1}, // orphan
	}
	s := summarize(spans)
	if s.Requests != 1 || s.Orphans != 1 {
		t.Fatalf("requests %d orphans %d, want 1 and 1", s.Requests, s.Orphans)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	approx("client", s.ClientMs, 1000e-6)
	approx("client wire", s.ClientWireMs, (980-900)*1e-6)
	approx("coord child", s.CoordChildMs, 500e-6) // [100,600] once
	approx("coord self", s.CoordSelfMs, 400e-6)
	approx("residual", s.ResidualMs, 20e-6)
	approx("search wire", s.SearchWireMs, 100e-6)
	approx("search handler", s.SearchHandleMs, 200e-6)
	approx("bytes", s.BytesPerReq, 210)
}

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := percentile(xs, 0.5); got != 499 {
		t.Errorf("p50 = %g, want 499", got)
	}
	if got := percentile(xs, 0.99); got != 989 {
		t.Errorf("p99 = %g, want 989", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", got)
	}
	cands := []float64{0.9, 0.95, 0.99, 0.999}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{{1000, 0.99, true}, {900, 0.95, true}, {250, 0.95, true}, {150, 0.9, true}, {50, 0, false}, {20000, 0.999, true}} {
		p, ok := tailPercentile(tc.n, cands)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g,%v want %g,%v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g,%g want 2.75,8.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestRequestSequenceIsAFunctionOfSeed(t *testing.T) {
	mk := func(seed int64, zipf float64) *stream { return newStream(seed, 64, 64, 10, zipf, 0.5, zipf > 1) }
	for _, zipf := range []float64{0, 1.5} {
		a, b, c := mk(7, zipf), mk(7, zipf), mk(8, zipf)
		differs := false
		ops := map[opKind]int{}
		for i := int64(0); i < 5000; i++ {
			if a.at(i) != b.at(i) {
				t.Fatalf("zipf %g: request %d differs between two streams of one seed", zipf, i)
			}
			if a.at(i) != c.at(i) {
				differs = true
			}
			ops[a.at(i).Op]++
		}
		if !differs {
			t.Errorf("zipf %g: seeds 7 and 8 generate the same requests", zipf)
		}
		if ops[opPublish] != 500 || ops[opRange] != 2500 || ops[opKNN] != 2000 {
			t.Errorf("zipf %g: mix %v, want 500 publish / 2500 range / 2000 knn", zipf, ops)
		}
	}
	center := []float64{1, 2, 3, 4}
	if !reflect.DeepEqual(jitterItem(3, streamJitter, 42, center), jitterItem(3, streamJitter, 42, center)) {
		t.Error("jitterItem is not a function of its arguments")
	}
	if reflect.DeepEqual(jitterItem(3, streamJitter, 42, center), jitterItem(3, streamJitter, 43, center)) {
		t.Error("jitterItem ignores the index")
	}
	sk := mk(7, 1.5)
	repeats := 0
	for i := 1; i < 20000; i++ {
		if sk.queries[i] == sk.queries[i-1] {
			repeats++
		}
	}
	if frac := float64(repeats) / 20000; frac < 0.5 || frac > 0.8 {
		t.Errorf("skewed stream repeats the previous query %.2f of the time, want >= the 0.5 repeat fraction", frac)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	if got := dueSeconds(25, 50); got != 0.5 {
		t.Fatalf("dueSeconds(25, 50) = %g, want 0.5", got)
	}
	const rate, service = 100.0, 40 * time.Millisecond
	start := time.Now()
	out := openLoop(rate, start.Add(200*time.Millisecond), func(j int64) error {
		time.Sleep(service)
		if j == 3 {
			return errors.New("refused")
		}
		return nil
	})
	elapsed := time.Since(start)
	if n := len(out.late); n != 20 {
		t.Fatalf("%d publishes in 0.2 s at 100/s, want 20", n)
	}
	if out.failed != 1 || len(out.fromDue) != 19 {
		t.Fatalf("failed %d ok %d, want 1 and 19", out.failed, len(out.fromDue))
	}
	// Open loop: 20 calls of 40 ms overlap; a closed loop would take 800 ms.
	if elapsed > 600*time.Millisecond {
		t.Errorf("open loop took %v: sends waited for completions", elapsed)
	}
	for _, l := range out.fromDue {
		if l < ms(service) {
			t.Errorf("latency %g ms is below the %v service time: not timed from the due time", l, service)
		}
	}
	for _, l := range out.late {
		if l < 0 {
			t.Errorf("publish sent %g ms before it was due", -l)
		}
	}
}

// tiny shrinks a workload to test size: the same code paths at about 1/50 of
// the work.
func tiny(sp spec) spec {
	if sp.Serve && sp.Peers > 8 {
		sp.Peers = 8
	}
	if !sp.Serve {
		sp.Peers = 8
	}
	sp.ItemsPerPeer /= 50
	if sp.ItemsPerPeer < 20 {
		sp.ItemsPerPeer = 20
	}
	if sp.Pool > 64 {
		sp.Pool = 64
	}
	sp.Warmup /= 10
	sp.Gate = 5
	sp.QuerySlice = 0.02
	return sp
}

func testEnv(t *testing.T, transportName string) environment {
	env := newEnvironment(t.TempDir())
	env.Transport = transportName
	env.ProbeBudget = 2 * time.Millisecond
	return env
}

func TestTracingTransportIsTransparent(t *testing.T) {
	sp, _ := findSpec("serve-skewed")
	sp = tiny(sp)
	sp.Peers = 4
	w, err := buildWorld(sp)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := startCluster(w, "chan", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.stop()
	rec := newRecorder()
	traced, err := startCluster(w, "chan", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.stop()
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		q, eps, p := w.pool.centers[i], w.pool.radii[i], i%sp.Peers
		end := rec.beginRequest(int64(i), "query")
		a, errA := plain.client.Range(ctx, plain.addrs[p], q, eps, core.RangeOptions{})
		b, errB := traced.client.Range(ctx, traced.addrs[p], q, eps, core.RangeOptions{})
		if errA != nil || errB != nil {
			t.Fatalf("range %d: %v / %v", i, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("range %d answers differ with the tracing transport", i)
		}
		ka, errA := plain.client.KNN(ctx, plain.addrs[p], q, sp.K, core.KNNOptions{})
		kb, errB := traced.client.KNN(ctx, traced.addrs[p], q, sp.K, core.KNNOptions{})
		end()
		if errA != nil || errB != nil {
			t.Fatalf("knn %d: %v / %v", i, errA, errB)
		}
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("knn %d answers differ with the tracing transport", i)
		}
	}
	if s := summarize(rec.drain()); s.Orphans != 0 || s.Spans == 0 {
		t.Fatalf("%d spans, %d orphans", s.Spans, s.Orphans)
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, program has %q / %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts %d/%d, program has %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := bj.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := bj.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, g, d)
		}
	}
}

// TestTinyPassOfEveryWorkload runs all four workloads in both trace modes at
// test size, so a broken harness fails `go test ./...`.
func TestTinyPassOfEveryWorkload(t *testing.T) {
	env := testEnv(t, "tcp")
	ctx := context.Background()
	for _, full := range workloads {
		sp := tiny(full)
		for trace := 0; trace <= 1; trace++ {
			res, err := runOne(ctx, sp, env, 1, 0.3, trace)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sp.Name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%d: %d of %d operations failed: %v", sp.Name, trace, res.Failed, res.Attempted, res.first)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", sp.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %v (present %v)", sp.Name, trace, d.Name, v.Value, ok)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", sp.Name, d.Name, v.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil || len(line.Metrics) != len(defs) || line.Attempted < 1 {
				t.Errorf("%s trace=%d: contract line does not parse back: %v", sp.Name, trace, err)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		worse, a, b, bound float64
		want               string
	}{
		{0.05, 0.02, 0.03, 0.10, "ok"},
		{-0.30, 0.02, 0.03, 0.10, "ok"},
		{0.12, 0.02, 0.03, 0.10, "regressed"},
		{0.12, 0.02, 0.15, 0.10, "unresolved"},
		{0.00, 0.15, 0.02, 0.10, "unresolved"},
	} {
		if got := verdict(tc.worse, tc.a, tc.b, tc.bound); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc, got, tc.want)
		}
	}
}
