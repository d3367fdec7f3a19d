package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hyperm/internal/can"
	"hyperm/internal/dataset"
	"hyperm/internal/overlay"
)

// buildSystem constructs an unpublished system over a fixed ALOI-substitute
// corpus with the given parallelism. Everything else (data, overlay seeds,
// clustering seeds) depends only on seed, so two calls with different
// parallelism must yield byte-identical systems after publication.
func buildSystem(t *testing.T, seed int64, parallelism int) (*System, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data, _ := dataset.ALOI(dataset.ALOIConfig{Objects: 24, Views: 6, Bins: 32}, rng)
	sys, err := NewSystem(Config{
		Peers:           8,
		Dim:             32,
		Levels:          4,
		ClustersPerPeer: 4,
		Factory:         canFactory(seed),
		Rng:             rand.New(rand.NewSource(seed + 1)),
		Parallelism:     parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range data {
		sys.AddPeerData(i%8, []int{i}, [][]float64{x})
	}
	return sys, data
}

// The tentpole determinism guarantee: Prepare/PublishAll with Parallelism 1
// and Parallelism 8 must produce identical bounds, summaries, hop counts,
// and query results — for several seeds, so the equality is not a
// coincidence of one RNG stream.
func TestPublishSerialParallelIdentical(t *testing.T) {
	for _, seed := range []int64{3, 17, 99, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serial, data := buildSystem(t, seed, 1)
			par, _ := buildSystem(t, seed, 8)

			serial.DeriveBounds()
			par.DeriveBounds()
			if !reflect.DeepEqual(serial.bounds, par.bounds) {
				t.Fatalf("DeriveBounds diverged:\nserial %v\nparallel %v", serial.bounds, par.bounds)
			}

			stS := serial.PublishAll()
			stP := par.PublishAll()
			if !reflect.DeepEqual(stS, stP) {
				t.Fatalf("PublishAll stats diverged:\nserial %+v\nparallel %+v", stS, stP)
			}

			for p := 0; p < 8; p++ {
				for l := 0; l < 4; l++ {
					cs, cp := serial.PublishedClusters(p, l), par.PublishedClusters(p, l)
					if !reflect.DeepEqual(cs, cp) {
						t.Fatalf("peer %d level %d summaries diverged:\nserial %v\nparallel %v", p, l, cs, cp)
					}
				}
			}

			qrng := rand.New(rand.NewSource(seed + 2))
			for trial := 0; trial < 10; trial++ {
				q := data[qrng.Intn(len(data))]
				eps := 0.02 + qrng.Float64()*0.1
				rs := serial.RangeQuery(0, q, eps, RangeOptions{})
				rp := par.RangeQuery(0, q, eps, RangeOptions{})
				if !reflect.DeepEqual(rs, rp) {
					t.Fatalf("trial %d: range results diverged:\nserial %+v\nparallel %+v", trial, rs, rp)
				}
				ks := serial.KNNQuery(0, q, 8, KNNOptions{})
				kp := par.KNNQuery(0, q, 8, KNNOptions{})
				if !reflect.DeepEqual(ks, kp) {
					t.Fatalf("trial %d: knn results diverged:\nserial %+v\nparallel %+v", trial, ks, kp)
				}
			}
		})
	}
}

// Publishing peers one at a time must be exactly equivalent to PublishAll:
// the per-peer clustering seeds come from the same serial draw order.
func TestPublishPeerByPeerMatchesPublishAll(t *testing.T) {
	const seed = 7
	all, _ := buildSystem(t, seed, 0)
	oneByOne, _ := buildSystem(t, seed, 4)
	all.DeriveBounds()
	oneByOne.DeriveBounds()

	stAll := all.PublishAll()
	sum := PublishStats{HopsPerLevel: make([]int, 4)}
	for p := 0; p < 8; p++ {
		st := oneByOne.PublishPeer(p)
		sum.ClustersPublished += st.ClustersPublished
		sum.Hops += st.Hops
		for l, h := range st.HopsPerLevel {
			sum.HopsPerLevel[l] += h
		}
	}
	if !reflect.DeepEqual(stAll, sum) {
		t.Fatalf("stats diverged:\nPublishAll %+v\nper-peer   %+v", stAll, sum)
	}
	for p := 0; p < 8; p++ {
		for l := 0; l < 4; l++ {
			if !reflect.DeepEqual(all.PublishedClusters(p, l), oneByOne.PublishedClusters(p, l)) {
				t.Fatalf("peer %d level %d summaries diverged", p, l)
			}
		}
	}
}

// Parallel publication must preserve the paper's retrieval guarantee, not
// just internal equality: full-budget range queries keep recall 1.0.
func TestParallelPublishKeepsNoFalseDismissals(t *testing.T) {
	sys, data := buildSystem(t, 21, 8)
	sys.DeriveBounds()
	sys.PublishAll()
	qrng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		q := data[qrng.Intn(len(data))]
		res := sys.RangeQuery(0, q, 0.05, RangeOptions{})
		found := false
		for _, id := range res.Items {
			if data[id] != nil {
				found = true
				break
			}
		}
		if len(res.Items) == 0 || !found {
			t.Fatalf("trial %d: parallel-published system lost items: %v", trial, res.Items)
		}
	}
}

// publishedAt publishes one labelled corpus over f at the given parallelism;
// everything but the parallelism depends only on fixed seeds. A peer holds
// ~120 rows of 64 coordinates, so a query that selects a few peers crosses
// scanFanoutMinWork.
func publishedAt(t *testing.T, f OverlayFactory, parallelism int) (*System, [][]float64) {
	t.Helper()
	data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: 60, Views: 20, Bins: 64}, rand.New(rand.NewSource(5)))
	sys, err := NewSystem(Config{Peers: 10, Dim: 64, Levels: 4, ClustersPerPeer: 4,
		Factory: f, Rng: rand.New(rand.NewSource(6)), Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range data {
		sys.AddPeerData(labels[i]%10, []int{i}, [][]float64{x})
	}
	sys.PublishAll()
	return sys, data
}

// canStats returns the per-level statistics of a system's CAN overlays (nil
// for other substrates): the hop and fallback counters the level searches
// update.
func canStats(sys *System) []can.Stats {
	var out []can.Stats
	for l := range sys.overlays {
		if o, ok := sys.overlays[l].(*can.Overlay); ok {
			out = append(out, o.Stats())
		}
	}
	return out
}

// One query fans out its level searches and its store scans (installBounds);
// answers, scores, contacts, hops, per-level radii and every level's overlay
// statistics must be those of the serial run — over each substrate, over a
// lossy CAN whose searches draw from per-level loss RNGs, under peer budgets,
// and again after a crash, a departure and post-creation inserts.
func TestQuerySerialParallelIdentical(t *testing.T) {
	lossy := func(l, keyDim, peers int) (overlay.Network, error) {
		return can.Build(can.Config{Nodes: peers, Dim: keyDim,
			Rng:      rand.New(rand.NewSource(11 + int64(l))),
			DropRate: 0.1, FailRng: rand.New(rand.NewSource(77 + int64(l)))})
	}
	factories := append(substrates(5), struct {
		name string
		f    OverlayFactory
	}{"lossy CAN", lossy})
	for _, sub := range factories {
		t.Run(sub.name, func(t *testing.T) {
			serial, data := publishedAt(t, sub.f, 1)
			par, _ := publishedAt(t, sub.f, 8)
			qrng := rand.New(rand.NewSource(9))
			// fannedOut counts the queries whose retrieval phase was big
			// enough to fan out, so the differential is known to cover it.
			fannedOut := map[string]int{}
			crossed := func(kind string, scores []PeerScore) {
				rows := 0
				for _, ps := range scores {
					rows += par.PeerItemCount(ps.Peer)
				}
				if rows*par.cfg.Dim >= scanFanoutMinWork {
					fannedOut[kind]++
				}
			}
			queries := func(phase string) {
				t.Helper()
				for trial := 0; trial < 12; trial++ {
					from := trial % 10
					for !serial.PeerAlive(from) {
						from = (from + 1) % 10
					}
					q := data[qrng.Intn(len(data))]
					eps := 0.02 + qrng.Float64()*0.15
					budget := []int{0, 1, 3}[trial%3]
					rs := serial.RangeQuery(from, q, eps, RangeOptions{MaxPeers: budget})
					rp := par.RangeQuery(from, q, eps, RangeOptions{MaxPeers: budget})
					if !reflect.DeepEqual(rs, rp) {
						t.Fatalf("%s trial %d: range diverged:\nserial   %+v\nparallel %+v", phase, trial, rs, rp)
					}
					crossed("range", rp.Scores[:rp.PeersContacted])
					k := []int{1, 20, 100}[trial%3]
					opts := KNNOptions{MaxPeers: []int{0, 2}[trial%2], C: []float64{0, 1.5}[trial/2%2]}
					ks := serial.KNNQuery(from, q, k, opts)
					kp := par.KNNQuery(from, q, k, opts)
					if !reflect.DeepEqual(ks, kp) {
						t.Fatalf("%s trial %d: k-nn diverged:\nserial   %+v\nparallel %+v", phase, trial, ks, kp)
					}
					crossed("k-nn", kp.Scores[:kp.PeersContacted])
					if ss, sp := canStats(serial), canStats(par); !reflect.DeepEqual(ss, sp) {
						t.Fatalf("%s trial %d: overlay stats diverged:\nserial   %+v\nparallel %+v", phase, trial, ss, sp)
					}
				}
			}
			queries("published")

			for _, sys := range []*System{serial, par} {
				sys.FailPeer(2)
				if _, err := sys.LeavePeer(3); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 20; j++ {
					sys.PostInsert(j%10, len(data)+j, data[(7*j)%len(data)])
				}
			}
			queries("after churn and inserts")
			if fannedOut["range"] == 0 || fannedOut["k-nn"] == 0 {
				t.Fatalf("retrieval fanned out for %v queries: the parallel scans went untested", fannedOut)
			}
		})
	}
}

// Config validation must reject a negative Parallelism.
func TestNegativeParallelismRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, err := NewSystem(Config{Peers: 2, Dim: 8, Levels: 2, ClustersPerPeer: 1,
		Factory: canFactory(1), Rng: rng, Parallelism: -1})
	if err == nil {
		t.Fatal("negative Parallelism accepted")
	}
}
