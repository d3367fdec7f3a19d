package can

import (
	"math"

	"hyperm/internal/overlay"
)

// This file retains the pre-extraction CAN sphere-search algorithm as a
// frozen reference oracle. It is an independent, self-contained transcription
// of SearchSphere as it stood before the decision logic moved into
// internal/route — including private copies of the zone geometry — so the
// differential and fuzz tests compare two genuinely separate implementations.
// It must never be "fixed" to track the live code; if the two disagree, the
// live path is the suspect.

// searchSphereReference computes what SearchSphere must return: the entries
// whose spheres intersect the query (deduplicated, in flood collection
// order) and the hops spent. It is a pure function of the overlay state —
// no stats, no observer messages, no mutation — and only supports lossless
// overlays, where routing hops and flood messages are deterministic.
func searchSphereReference(o *Overlay, from int, key []float64, radius float64) ([]overlay.Entry, int) {
	if o.dropRate != 0 {
		panic("can: searchSphereReference requires a lossless overlay")
	}

	// Greedy routing to the owner of key.
	cur := o.nodes[from]
	hops := 0
	visited := map[int]bool{cur.id: true}
	limit := 8*len(o.nodes) + 16
	for !refZonesContain(cur.zones, key) {
		if hops > limit {
			cur = refOwnerScan(o, key)
			hops++
			break
		}
		bestID, bestDist := -1, math.Inf(1)
		for _, nb := range cur.neighbors {
			d := refZonesDist(o.nodes[nb].zones, key)
			if visited[nb] {
				d += 1e6
			}
			if d < bestDist {
				bestID, bestDist = nb, d
			}
		}
		if bestID < 0 {
			cur = refOwnerScan(o, key)
			hops++
			break
		}
		hops++
		cur = o.nodes[bestID]
		visited[cur.id] = true
	}
	owner := cur

	// Flood the zones intersecting the query sphere, collecting matches.
	seen := map[int]bool{}
	var results []overlay.Entry
	collect := func(n *node) {
		for _, recs := range [2][]RecordView{n.owned, n.replicas} {
			for _, rec := range recs {
				if seen[rec.Seq] {
					continue
				}
				if refTorusDist(rec.Entry.Key, key) <= rec.Entry.Radius+radius {
					seen[rec.Seq] = true
					results = append(results, rec.Entry)
				}
			}
		}
	}

	floodVisited := map[int]bool{owner.id: true}
	collect(owner)
	frontier := []*node{owner}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, n := range frontier {
			for _, nbID := range n.neighbors {
				if floodVisited[nbID] {
					continue
				}
				floodVisited[nbID] = true
				nb := o.nodes[nbID]
				if !refZonesIntersect(nb.zones, key, radius) {
					continue
				}
				hops++
				collect(nb)
				next = append(next, nb)
			}
		}
		frontier = next
	}
	return results, hops
}

func refOwnerScan(o *Overlay, target []float64) *node {
	for _, n := range o.nodes {
		if n.alive && refZonesContain(n.zones, target) {
			return n
		}
	}
	panic("can: reference found no owner — zones do not tile the space")
}

func refZonesContain(zs []Zone, p []float64) bool {
	for _, z := range zs {
		in := true
		for i := range z.Lo {
			if p[i] < z.Lo[i] || p[i] >= z.Hi[i] {
				in = false
				break
			}
		}
		if in {
			return true
		}
	}
	return false
}

func refZonesDist(zs []Zone, p []float64) float64 {
	best := math.Inf(1)
	for _, z := range zs {
		var s float64
		for i := range z.Lo {
			d := refCoordDistToSpan(p[i], z.Lo[i], z.Hi[i])
			s += d * d
		}
		if d := math.Sqrt(s); d < best {
			best = d
		}
	}
	return best
}

func refZonesIntersect(zs []Zone, key []float64, radius float64) bool {
	for _, z := range zs {
		var s float64
		for i := range z.Lo {
			d := refCoordDistToSpan(key[i], z.Lo[i], z.Hi[i])
			s += d * d
		}
		if math.Sqrt(s) <= radius {
			return true
		}
	}
	return false
}

func refCoordDistToSpan(x, lo, hi float64) float64 {
	if hi-lo >= 1 {
		return 0
	}
	if x >= lo && x < hi {
		return 0
	}
	return math.Min(refCircDist(x, lo), refCircDist(x, hi))
}

func refCircDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

func refTorusDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += refCircDist(a[i], b[i]) * refCircDist(a[i], b[i])
	}
	return math.Sqrt(s)
}
