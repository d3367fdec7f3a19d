package main

import (
	"math/rand"

	"hyperm/internal/vec"
)

// The load generator. Request i of a run — its op, its query and the node it
// is sent to — is a pure function of the seed and i, so both sides of a
// comparison see the same requests no matter how their goroutines interleave
// and the program under test sees nothing but generated inputs.

type opKind uint8

const (
	opPublish opKind = iota
	opRange
	opKNN
)

var opNames = [...]string{"publish", "range", "knn"}

// seqLen is the length of the precomputed query-index sequence; request i
// reads slot i%seqLen. It exceeds what the fastest workload issues in the
// longest permitted run, so no run wraps.
const seqLen = 1 << 18

// Publish ids start beyond any corpus id; the open-loop ingest stream gets its
// own range so an id names its generator and index.
const (
	publishIDBase = 1 << 24
	ingestIDBase  = 1 << 28
)

// mix64 is splitmix64's finalizer: a stateless hash of (seed, stream, index).
func mix64(seed int64, stream, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

const (
	streamQuery = iota + 1
	streamCoord
	streamTarget
	streamJitter
	streamIngestQuery
	streamIngestTarget
	streamIngestJitter
)

// request is one generated operation.
type request struct {
	Op    opKind
	Query int // index into the query pool
	Node  int // coordinator (queries) or receiving founder (publishes)
}

// stream generates one workload's requests.
type stream struct {
	seed         int64
	nodes        int
	publishEvery int  // every publishEvery-th request is a publish; 0 = none
	affinity     bool // coordinator chosen by query hash, not by request
	queries      []int32
}

// newStream draws the query-index sequence: uniform over the pool, or Zipf(s)
// with a repeat-previous fraction when zipfS > 1.
func newStream(seed int64, nodes, pool, publishEvery int, zipfS, repeat float64, affinity bool) *stream {
	st := &stream{seed: seed, nodes: nodes, publishEvery: publishEvery, affinity: affinity, queries: make([]int32, seqLen)}
	if zipfS <= 1 {
		for i := range st.queries {
			st.queries[i] = int32(mix64(seed, streamQuery, uint64(i)) % uint64(pool))
		}
		return st
	}
	rng := rand.New(rand.NewSource(int64(mix64(seed, streamQuery, 0) >> 1)))
	z := rand.NewZipf(rng, zipfS, 1, uint64(pool-1))
	for i := range st.queries {
		if i > 0 && rng.Float64() < repeat {
			st.queries[i] = st.queries[i-1]
		} else {
			st.queries[i] = int32(z.Uint64())
		}
	}
	return st
}

// opFor assigns ops by request index: with publishes, one in publishEvery is a
// publish and the rest alternate range/kNN (45/45/10 at publishEvery = 10).
func (st *stream) opFor(i int64) opKind {
	if st.publishEvery > 0 {
		m := i % int64(st.publishEvery)
		if m == 0 {
			return opPublish
		}
		if m%2 == 1 {
			return opRange
		}
		return opKNN
	}
	if i%2 == 0 {
		return opRange
	}
	return opKNN
}

// at returns request i.
func (st *stream) at(i int64) request {
	r := request{Op: st.opFor(i), Query: int(st.queries[i%seqLen])}
	switch {
	case r.Op == opPublish:
		r.Node = int(mix64(st.seed, streamTarget, uint64(i)) % uint64(st.nodes))
	case st.affinity:
		r.Node = int(uint(r.Query) * 2654435761 % uint(st.nodes))
	default:
		r.Node = int(mix64(st.seed, streamCoord, uint64(i)) % uint64(st.nodes))
	}
	return r
}

// jitterItem is the item a publish inserts: the pool center nudged by a small
// offset that is a function of (seed, stream, index) alone, so the checker can
// rebuild any published vector from its id.
func jitterItem(seed int64, strm, i uint64, center []float64) []float64 {
	item := make([]float64, len(center))
	for d := range item {
		item[d] = center[d] + 0.01*unit(mix64(seed, strm, i*uint64(len(center))+uint64(d)))
	}
	return item
}

// ingestAt is open-loop publish j: its pool query and receiving founder.
func (st *stream) ingestAt(j int64, pool int) (query, node int) {
	return int(mix64(st.seed, streamIngestQuery, uint64(j)) % uint64(pool)),
		int(mix64(st.seed, streamIngestTarget, uint64(j)) % uint64(st.nodes))
}

// dueSeconds is the open-loop schedule: publish j is due j/rate seconds in.
func dueSeconds(j int64, rate float64) float64 { return float64(j) / rate }

// queryPool is the fixed set of (center, radius) pairs a workload draws from:
// centers are stored items and radii inter-item distances, so range and kNN
// requests do real multi-level, multi-peer work (the hyperm-load pool rule).
type queryPool struct {
	centers [][]float64
	radii   []float64
}

func newQueryPool(seed int64, size int, data [][]float64) queryPool {
	rng := rand.New(rand.NewSource(seed))
	p := queryPool{centers: make([][]float64, size), radii: make([]float64, size)}
	for i := range p.centers {
		p.centers[i] = data[rng.Intn(len(data))]
		p.radii[i] = vec.Dist(p.centers[i], data[rng.Intn(len(data))])
	}
	return p
}
