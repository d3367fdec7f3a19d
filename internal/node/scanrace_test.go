package node_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/store"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// TestScanIndexUnderPublishRace serves range and kNN queries from several
// clients while one publisher grows a holder's store across the scan-index
// threshold and on past a rebuild: the first index build and the rebuild both
// happen inside fetch handlers racing the appends. Queries must never fail
// while it runs, and once the stream stops every answer must equal the
// oracle's over the same items — whichever index state each store ended in.
func TestScanIndexUnderPublishRace(t *testing.T) {
	const peers, publishes = 4, store.IndexMinRows/4 + 80
	p := experiments.Params{Peers: peers, ItemsPerPeer: store.IndexMinRows - 60, Dim: 8, Levels: 2, ClustersPerPeer: 3, Seed: 5}
	sys, err := experiments.BuildMarkovSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	defer tr.Close()
	listen := func(peer int) string { return "" }
	cl, err := node.StartClusterTuned(sys, tr, listen, transport.Policy{Timeout: 30e9}, membership.Options{}, node.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := node.NewClient(tr, transport.Policy{Timeout: 30e9})
	ctx := context.Background()

	_, seedItems := sys.PeerData(0)
	_, farItems := sys.PeerData(1)
	var qs [][]float64
	var radii []float64
	for i := 0; i < 8; i++ {
		qs = append(qs, seedItems[i*7])
		radii = append(radii, vec.Dist(seedItems[i*7], farItems[i*11]))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q, from := qs[i%len(qs)], cl.Addrs[i%peers]
				if _, err := client.Range(ctx, from, q, radii[i%len(qs)], core.RangeOptions{}); err != nil {
					t.Errorf("range during publishes: %v", err)
					return
				}
				if _, err := client.KNN(ctx, from, q, 5, core.KNNOptions{}); err != nil {
					t.Errorf("knn during publishes: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < publishes; i++ {
		item := vec.Clone(seedItems[i%len(seedItems)])
		item[i%len(item)] += 1e-3 * float64(1+i)
		id := 1<<20 + i
		sys.PostInsert(0, id, item)
		if err := client.Publish(ctx, cl.Addrs[0], id, item); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	if got := cl.Nodes[0].ItemCount(); got < store.IndexMinRows+store.IndexMinRows/8 {
		t.Fatalf("holder 0 ended at %d rows: the stream never outgrew the first index", got)
	}
	for i, q := range qs {
		from := i % peers
		wantR := sys.RangeQuery(from, q, radii[i], core.RangeOptions{})
		gotR, err := client.Range(ctx, cl.Addrs[from], q, radii[i], core.RangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeRange(wantR), normalizeRange(gotR)) {
			t.Errorf("range query %d diverged from oracle after the race: %d vs %d items", i, len(gotR.Items), len(wantR.Items))
		}
		wantK := sys.KNNQuery(from, q, 5, core.KNNOptions{})
		gotK, err := client.KNN(ctx, cl.Addrs[from], q, 5, core.KNNOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeKNN(wantK), normalizeKNN(gotK)) {
			t.Errorf("knn query %d diverged from oracle after the race:\nsim:    %+v\nserved: %+v", i, wantK, gotK)
		}
	}
}
