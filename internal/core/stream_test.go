package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hyperm/internal/cluster"
	"hyperm/internal/dataset"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/wavelet"
)

// The streaming-publish kernel's contract has three parts, each pinned here:
// the O(changed clusters) deltas are *sufficient* — replaying them alone
// reconstructs the publisher's full record set (TestStreamDeltasReconstruct);
// the kernel is deterministic across independently built substrates
// (TestStreamDeterminism) and collapses to the batch clustering on re-cluster
// (TestStreamReclusterMatchesBatch); and unlike PostInsert it keeps streamed
// items findable (TestStreamInsertKeepsItemsFindable — the Fig 10c fix).

// streamTestSystem builds a published system over part of an ALOI-like corpus
// and returns the held-out remainder for streaming.
func streamTestSystem(t *testing.T, seed int64) (*System, [][]float64, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data, _ := dataset.ALOI(dataset.ALOIConfig{Objects: 24, Views: 8, Bins: 32}, rng)
	peers := 8
	pre, post := data[:144], data[144:]
	sys, err := NewSystem(Config{
		Peers: peers, Dim: 32, Levels: 3, ClustersPerPeer: 4,
		Factory: canFactory(seed), Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pre {
		sys.AddPeerData(i%peers, []int{i}, [][]float64{x})
	}
	sys.DeriveBounds()
	sys.PublishAll()
	return sys, pre, post
}

// expectedRecords derives the full record set a publisher's current published
// snapshot implies — the state the stream deltas must be able to reconstruct.
func expectedRecords(s *System, p int) []map[int]route.RecordView {
	ps := s.peers[p]
	mappers := BuildKeyMappers(s.bounds)
	out := make([]map[int]route.RecordView, len(ps.published))
	for l := range ps.published {
		out[l] = make(map[int]route.RecordView)
		for i, ref := range ps.published[l] {
			out[l][ps.pubSeqs[l][i]] = route.RecordView{
				Seq: ps.pubSeqs[l][i],
				Entry: overlay.Entry{
					Key:     mappers[l].MapPoint(ref.Center),
					Radius:  mappers[l].EntryRadius(ref.Radius),
					Payload: ref,
				},
			}
		}
	}
	return out
}

// TestStreamDeltasReconstruct replays every delta into a shadow record store
// and checks, after each insert, that the shadow equals the record set the
// publisher's snapshot implies — i.e. the O(changed clusters) deltas carry all
// the information a remote substrate needs. It also pins the steady-state
// payload (exactly one upsert per level outside re-cluster rounds) and that
// the sweep exercised every kernel branch.
func TestStreamDeltasReconstruct(t *testing.T) {
	sys, pre, post := streamTestSystem(t, 23)
	sys.SetStreamTuning(StreamTuning{ReclusterEvery: 10})
	const p = 2

	shadow := make([]map[int]route.RecordView, sys.cfg.Levels)
	for l := range shadow {
		shadow[l] = make(map[int]route.RecordView)
	}
	for l, m := range expectedRecords(sys, p) {
		for seq, rec := range m {
			shadow[l][seq] = rec
		}
	}

	rng := rand.New(rand.NewSource(24))
	var absorbs, grows, splits, dels int
	for i := 0; i < 30; i++ {
		// Alternate far-out corpus items (splits) with repeats of already-held
		// items (distance 0 → guaranteed absorb).
		var item []float64
		if i%3 == 0 {
			item = pre[(2+8*rng.Intn(len(pre)/8))%len(pre)]
		} else {
			item = post[rng.Intn(len(post))]
		}
		deltas, hops := sys.StreamInsert(p, 10_000+i, item)
		if hops < 0 {
			t.Fatalf("insert %d: negative hop count %d", i, hops)
		}
		recluster := false
		for _, d := range deltas {
			if d.Del {
				recluster = true
			}
		}
		if !recluster && len(deltas) != sys.cfg.Levels {
			t.Fatalf("insert %d: %d deltas outside a re-cluster, want one per level (%d)",
				i, len(deltas), sys.cfg.Levels)
		}
		for _, d := range deltas {
			if d.Del {
				dels++
				if _, ok := shadow[d.Level][d.Rec.Seq]; !ok {
					t.Fatalf("insert %d: delete for unknown seq %d", i, d.Rec.Seq)
				}
				delete(shadow[d.Level], d.Rec.Seq)
				continue
			}
			if prev, ok := shadow[d.Level][d.Rec.Seq]; !ok {
				splits++
			} else if prev.Entry.Radius != d.Rec.Entry.Radius {
				grows++
			} else {
				absorbs++
			}
			shadow[d.Level][d.Rec.Seq] = d.Rec
		}
		if want := expectedRecords(sys, p); !reflect.DeepEqual(shadow, want) {
			t.Fatalf("insert %d: delta replay diverged from published snapshot", i)
		}
	}
	t.Logf("branch coverage: %d absorbs, %d grows, %d splits, %d deletes", absorbs, grows, splits, dels)
	if absorbs == 0 || splits == 0 || dels == 0 {
		t.Fatalf("sweep missed a kernel branch (absorbs=%d splits=%d dels=%d)", absorbs, splits, dels)
	}
}

// TestStreamDeterminism streams the same insert sequence into two
// independently built systems and requires identical deltas at every step and
// identical query answers afterwards — the property that lets a live cluster
// use the simulator as a byte-level oracle.
func TestStreamDeterminism(t *testing.T) {
	sysA, _, postA := streamTestSystem(t, 31)
	sysB, _, postB := streamTestSystem(t, 31)
	sysA.SetStreamTuning(StreamTuning{ReclusterEvery: 6})
	sysB.SetStreamTuning(StreamTuning{ReclusterEvery: 6})
	if !reflect.DeepEqual(postA, postB) {
		t.Fatal("seeded corpus generation diverged")
	}
	for i, item := range postA[:15] {
		p := i % 4
		dA, hA := sysA.StreamInsert(p, 20_000+i, item)
		dB, hB := sysB.StreamInsert(p, 20_000+i, item)
		if hA != hB {
			t.Fatalf("insert %d: hops %d vs %d", i, hA, hB)
		}
		if !reflect.DeepEqual(dA, dB) {
			t.Fatalf("insert %d: deltas diverged between identical systems", i)
		}
	}
	for i, item := range postA[:15] {
		rA := sysA.RangeQuery(1, item, 0.05, RangeOptions{})
		rB := sysB.RangeQuery(1, item, 0.05, RangeOptions{})
		if !reflect.DeepEqual(rA, rB) {
			t.Fatalf("query %d: range answers diverged", i)
		}
		kA := sysA.KNNQuery(1, item, 5, KNNOptions{})
		kB := sysB.KNNQuery(1, item, 5, KNNOptions{})
		if !reflect.DeepEqual(kA, kB) {
			t.Fatalf("query %d: knn answers diverged", i)
		}
	}
}

// TestStreamReclusterMatchesBatch forces a re-cluster and checks the
// resulting clustering equals running the batch pipeline (decompose + k-means
// with the epoch's deterministic seed) directly over the peer's store: the
// periodic collapse really does restore batch-publish quality, not an
// approximation of it.
func TestStreamReclusterMatchesBatch(t *testing.T) {
	sys, _, post := streamTestSystem(t, 47)
	const every = 5
	sys.SetStreamTuning(StreamTuning{ReclusterEvery: every})
	const p = 1
	for i := 0; i < every; i++ {
		sys.StreamInsert(p, 30_000+i, post[i])
	}
	ps := sys.peers[p]
	if got := ps.stream.epoch; got != 1 {
		t.Fatalf("epoch = %d after %d inserts with ReclusterEvery=%d, want 1", got, every, every)
	}

	rng := rand.New(rand.NewSource(reclusterSeed(p, 1)))
	for l, coeffs := range wavelet.SubspaceMatrices(ps.store.Rows(), sys.cfg.Levels, sys.cfg.Convention) {
		res := cluster.KMeans(coeffs, cluster.Config{K: sys.cfg.ClustersPerPeer, Rng: rng})
		if len(res.Clusters) != len(ps.published[l]) {
			t.Fatalf("level %d: %d clusters, batch pipeline gives %d", l, len(ps.published[l]), len(res.Clusters))
		}
		for idx, c := range res.Clusters {
			ref := ps.published[l][idx]
			if !reflect.DeepEqual(ref.Center, c.Centroid) || ref.Radius != c.Radius || ref.Items != c.Count {
				t.Fatalf("level %d cluster %d: re-cluster diverged from batch pipeline", l, idx)
			}
			if want := streamSeq(p, l, 1, idx); ps.pubSeqs[l][idx] != want {
				t.Fatalf("level %d cluster %d: seq %d, want %d", l, idx, ps.pubSeqs[l][idx], want)
			}
		}
	}
}

// TestStreamInsertKeepsItemsFindable is the Fig 10c contrast: items streamed
// in after publication are found by point queries (their cluster spheres were
// updated and announced), while pre-existing items stay findable — where
// PostInsert provably lets the same corpus go stale
// (TestPostInsertDegradesGracefully documents the misses).
func TestStreamInsertKeepsItemsFindable(t *testing.T) {
	sys, pre, post := streamTestSystem(t, 53)
	sys.SetStreamTuning(StreamTuning{ReclusterEvery: 16})
	for j, x := range post {
		sys.StreamInsert(j%4, len(pre)+j, x)
	}
	for j, x := range post {
		got := sys.RangeQuery(5, x, 0, RangeOptions{})
		found := false
		for _, id := range got.Items {
			if id == len(pre)+j {
				found = true
			}
		}
		if !found {
			t.Fatalf("streamed item %d not found by its own point query", len(pre)+j)
		}
	}
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 10; trial++ {
		id := rng.Intn(len(pre))
		got := sys.RangeQuery(6, pre[id], 0, RangeOptions{})
		found := false
		for _, g := range got.Items {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("pre-existing item %d lost after streaming", id)
		}
	}
}
