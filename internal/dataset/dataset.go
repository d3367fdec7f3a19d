// Package dataset generates the two workloads of the paper's evaluation and
// assigns data items to peers the way §5.1 describes.
//
//   - Markov: the synthetic efficiency dataset (§5.1, Fig 7) — feature
//     vectors produced by a two-state (Increasing/Decreasing) Markov process
//     with randomized transition probabilities, start value and step sizes.
//   - ALOI: a stand-in for the Amsterdam Library of Object Images used in
//     the effectiveness experiments (§6). The real library is 1,000 objects
//     photographed under varying viewing angle and illumination; we generate
//     one base color histogram per object and derive each "view" by shifting,
//     rescaling and perturbing it, which reproduces the property the paper's
//     retrieval experiments rely on: views of the same object form tight
//     clusters, distinct objects lie far apart.
//   - AssignToPeers: cluster the corpus with k-means in the original space
//     and spread each cluster over 8–10 peers, simulating users whose
//     collections cover a limited set of interests.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"hyperm/internal/cluster"
)

// A Markov vector starts from a value drawn uniformly below maxStart and
// steps by at most a per-vector maximum drawn uniformly below maxStepCeil.
const (
	maxStart    = 100
	maxStepCeil = 5
)

// MarkovConfig parameterizes the synthetic dissemination dataset.
type MarkovConfig struct {
	// N is the number of feature vectors (the paper uses 100,000).
	N int
	// Dim is the vector dimensionality (the paper uses 512).
	Dim int
}

// Markov generates cfg.N vectors of cfg.Dim dimensions following §5.1:
// a two-state Markov chain with p1 drawn uniformly from [0, 0.5),
// p2 = p1 + x with x uniform in [-0.05, 0.05], and random start value,
// initial state, step and maximum step. Values are floored at zero.
func Markov(cfg MarkovConfig, rng *rand.Rand) [][]float64 {
	if cfg.N < 0 || cfg.Dim < 1 {
		panic(fmt.Sprintf("dataset: invalid Markov config N=%d Dim=%d", cfg.N, cfg.Dim))
	}
	if rng == nil {
		panic("dataset: rng must be non-nil")
	}
	data := make([][]float64, cfg.N)
	for i := range data {
		data[i] = markovVector(cfg.Dim, rng)
	}
	return data
}

func markovVector(dim int, rng *rand.Rand) []float64 {
	// p1: probability of switching out of Increasing;
	// p2 = p1 + x: probability of switching out of Decreasing.
	p1 := rng.Float64() * 0.5
	p2 := p1 + (rng.Float64()*0.1 - 0.05)
	if p2 < 0 {
		p2 = 0
	}
	if p2 > 1 {
		p2 = 1
	}
	increasing := rng.Intn(2) == 0
	value := rng.Float64() * maxStart
	maxStep := rng.Float64() * maxStepCeil
	v := make([]float64, dim)
	for j := range v {
		step := rng.Float64() * maxStep
		if increasing {
			value += step
			if rng.Float64() < p1 {
				increasing = false
			}
		} else {
			value -= step
			if value < 0 {
				value = 0
			}
			if rng.Float64() < p2 {
				increasing = true
			}
		}
		v[j] = value
	}
	return v
}

// ALOIConfig parameterizes the ALOI-substitute image-histogram corpus.
type ALOIConfig struct {
	// Objects is the number of distinct objects (the real ALOI has 1,000).
	Objects int
	// Views is the number of views per object (angle/illumination variants;
	// 12 gives the paper's 12,000 items at 1,000 objects).
	Views int
	// Bins is the color-histogram dimensionality; must be a power of two
	// for the wavelet hierarchy.
	Bins int
}

// maxPeaks bounds the number of dominant colors per object.
const maxPeaks = 4

// ALOI generates Objects*Views color histograms (each row sums to 1) and a
// parallel label slice giving the object id of each row. Views of an object
// are perturbations — bin shift (viewing angle), intensity rescale
// (illumination) and multiplicative noise — of the object's base histogram.
func ALOI(cfg ALOIConfig, rng *rand.Rand) (data [][]float64, labels []int) {
	if cfg.Objects < 1 || cfg.Views < 1 || cfg.Bins < 1 {
		panic(fmt.Sprintf("dataset: invalid ALOI config %+v", cfg))
	}
	if rng == nil {
		panic("dataset: rng must be non-nil")
	}
	data = make([][]float64, 0, cfg.Objects*cfg.Views)
	labels = make([]int, 0, cfg.Objects*cfg.Views)
	for obj := 0; obj < cfg.Objects; obj++ {
		base := baseHistogram(cfg.Bins, rng)
		for v := 0; v < cfg.Views; v++ {
			data = append(data, perturbView(base, rng))
			labels = append(labels, obj)
		}
	}
	return data, labels
}

// baseHistogram builds an object's signature: a mixture of 2..maxPeaks
// Gaussian color peaks over the bins, normalized to unit mass.
func baseHistogram(bins int, rng *rand.Rand) []float64 {
	h := make([]float64, bins)
	peaks := 2 + rng.Intn(maxPeaks-1)
	for p := 0; p < peaks; p++ {
		center := rng.Float64() * float64(bins)
		width := 1 + rng.Float64()*float64(bins)/8
		weight := 0.2 + rng.Float64()
		for b := range h {
			d := (float64(b) - center) / width
			h[b] += weight * gauss(d)
		}
	}
	// A small uniform floor keeps histograms strictly positive, like real
	// images with background pixels in every color bucket.
	for b := range h {
		h[b] += 0.01
	}
	normalize(h)
	return h
}

func gauss(d float64) float64 {
	return math.Exp(-d * d / 2)
}

// perturbView derives one view of an object: circular bin shift of up to two
// bins (viewing angle), global intensity scale (illumination), and 10%
// multiplicative speckle, then renormalization.
func perturbView(base []float64, rng *rand.Rand) []float64 {
	bins := len(base)
	shift := rng.Intn(5) - 2 // -2..+2 bins
	out := make([]float64, bins)
	for b := range out {
		src := ((b-shift)%bins + bins) % bins
		noise := 1 + (rng.Float64()*0.2 - 0.1)
		out[b] = base[src] * noise
	}
	// Illumination changes darken/brighten the image: mass shifts toward
	// the low or high end before renormalization.
	tilt := rng.Float64()*0.4 - 0.2
	for b := range out {
		out[b] *= 1 + tilt*(float64(b)/float64(bins)-0.5)
	}
	normalize(out)
	return out
}

func normalize(h []float64) {
	var sum float64
	for _, v := range h {
		sum += v
	}
	if sum <= 0 {
		return
	}
	for i := range h {
		h[i] /= sum
	}
}

// Assignment maps peers to the data items they hold.
type Assignment struct {
	// PeerItems[p] lists the global item indices stored on peer p.
	PeerItems [][]int
	// ItemPeer[i] is the peer holding item i (-1 if unassigned, which only
	// happens when items were filtered out by skew selection).
	ItemPeer []int
	// Clusters is the number of interest clusters the assignment used.
	Clusters int
}

// AssignConfig tunes AssignToPeers.
type AssignConfig struct {
	// Peers is the number of peers.
	Peers int
	// Clusters is the number of k-means interest clusters (default
	// Peers/8+2, so that 8–10 peers per cluster roughly covers the network).
	Clusters int
	// KeepClusters, when positive, keeps only the items of that many
	// clusters — the intentional skew of the Figure 9 experiment
	// ("we cluster our original data and select only a fixed number of
	// clusters, two to five").
	KeepClusters int
}

// Each interest cluster is spread over minSpread..maxSpread peers (§5.1). The
// k-means centroids are fitted on at most sampleCap items, which keeps
// 100k×512 workloads tractable; every item then joins its nearest centroid.
const (
	minSpread, maxSpread = 8, 10
	sampleCap            = 4096
)

// AssignToPeers reproduces §5.1's data placement: k-means the corpus in the
// original space, then redistribute each cluster among minSpread..maxSpread
// randomly chosen peers. Every peer therefore holds items from a limited set
// of interest clusters, simulating users with focused collections.
func AssignToPeers(data [][]float64, cfg AssignConfig, rng *rand.Rand) Assignment {
	if cfg.Clusters == 0 {
		cfg.Clusters = cfg.Peers/8 + 2
	}
	if cfg.Peers < 1 {
		panic("dataset: need at least one peer")
	}
	if rng == nil {
		panic("dataset: rng must be non-nil")
	}

	// Fit centroids on a sample, then assign every item.
	sample := data
	if len(data) > sampleCap {
		sample = make([][]float64, sampleCap)
		perm := rng.Perm(len(data))
		for i := range sample {
			sample[i] = data[perm[i]]
		}
	}
	res := cluster.KMeans(sample, cluster.Config{K: cfg.Clusters, Rng: rng})
	centroids := make([][]float64, len(res.Clusters))
	for i, c := range res.Clusters {
		centroids[i] = c.Centroid
	}
	memberOf := make([][]int, len(centroids))
	for i, x := range data {
		c := nearest(x, centroids)
		memberOf[c] = append(memberOf[c], i)
	}

	keep := make([]bool, len(centroids))
	if cfg.KeepClusters > 0 && cfg.KeepClusters < len(centroids) {
		for _, c := range rng.Perm(len(centroids))[:cfg.KeepClusters] {
			keep[c] = true
		}
	} else {
		for c := range keep {
			keep[c] = true
		}
	}

	asg := Assignment{
		PeerItems: make([][]int, cfg.Peers),
		ItemPeer:  make([]int, len(data)),
		Clusters:  len(centroids),
	}
	for i := range asg.ItemPeer {
		asg.ItemPeer[i] = -1
	}
	for c, items := range memberOf {
		if !keep[c] || len(items) == 0 {
			continue
		}
		spread := minSpread + rng.Intn(maxSpread-minSpread+1)
		if spread > cfg.Peers {
			spread = cfg.Peers
		}
		peers := rng.Perm(cfg.Peers)[:spread]
		for j, item := range items {
			p := peers[j%len(peers)]
			asg.PeerItems[p] = append(asg.PeerItems[p], item)
			asg.ItemPeer[item] = p
		}
	}
	return asg
}

func nearest(x []float64, centroids [][]float64) int {
	best, bestD := 0, -1.0
	for c, cent := range centroids {
		var d float64
		for i, v := range x {
			diff := v - cent[i]
			d += diff * diff
		}
		if bestD < 0 || d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
