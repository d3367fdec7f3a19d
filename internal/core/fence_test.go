package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hyperm/internal/vec"
)

var updateFence = flag.Bool("update-fence", false, "rewrite testdata/answer_fence.golden from this tree")

// TestAnswerFence pins the answers of 200 seeded queries on a network of the
// disseminate workload's shape (64 peers, 128-d Markov rows, 4 levels, 10
// clusters per peer, k = 10) at fewer items: the k-nn plan's peers, shares
// and Eq 8 radii (rounded to 1e-9) with the items it retrieves, and each
// range query's items (count and FNV-64a of the ids) and peers contacted.
// The Eq 1 scores and the Eq 8 inversion both run through the geometry
// package, so a change to its arithmetic that moves any answer shows here.
// Regenerate with -update-fence only when answers are meant to change.
func TestAnswerFence(t *testing.T) {
	const peers, dim, k, queries = 64, 128, 10, 200
	rng := rand.New(rand.NewSource(44))
	sys, err := NewSystem(Config{Peers: peers, Dim: dim, Levels: 4, ClustersPerPeer: 10, Factory: canFactory(44), Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	var data [][]float64
	for p := range peers {
		rows := markovRows(rng, rng.Intn(300), dim)
		ids := make([]int, len(rows))
		for i := range ids {
			ids[i] = len(data) + i
		}
		if len(rows) > 0 {
			sys.AddPeerData(p, ids, rows)
		}
		data = append(data, rows...)
	}
	sys.DeriveBounds()
	sys.PublishAll()

	ctx := context.Background()
	var out bytes.Buffer
	for i := range queries {
		q := data[rng.Intn(len(data))]
		eps := vec.Dist(q, data[rng.Intn(len(data))])
		from := i % peers
		plan, err := sys.engine.PlanKNN(ctx, from, q, k, KNNOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.engine.RetrieveKNN(ctx, from, q, plan)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "knn %d eps", i)
		for _, e := range plan.EpsPerLevel {
			fmt.Fprintf(&out, " %.9f", math.Round(e*1e9)/1e9)
		}
		fmt.Fprintf(&out, " peers %v wants %v items %v\n", plan.Peers, plan.Wants, res.Items)
		rr := sys.RangeQuery(from, q, eps, RangeOptions{})
		h := fnv.New64a()
		for _, id := range rr.Items {
			fmt.Fprintf(h, "%d,", id)
		}
		fmt.Fprintf(&out, "range %d n %d fnv %016x peers %d\n", i, len(rr.Items), h.Sum64(), rr.PeersContacted)
	}

	path := filepath.Join("testdata", "answer_fence.golden")
	if *updateFence {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("answers moved at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("answers moved: %d lines, golden has %d", len(gl), len(wl))
}
