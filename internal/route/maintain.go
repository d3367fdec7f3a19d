package route

import (
	"errors"
	"math"
	"math/big"
)

// Zone maintenance: the pure decision procedures behind CAN topology
// changes — join splits, departure/crash takeovers, and the record
// redistribution they imply. Both the simulator (internal/can) and the live
// membership protocol (internal/membership) call these exact functions, so
// a live cluster that replays a churn schedule ends up with zones, neighbor
// adjacencies, and record placements bit-identical to the simulated oracle.
// Keeping them here, next to the routing machines, is what makes the
// determinism oracle possible: topology decisions have one implementation.

// ErrZoneTooSmall reports a join into a zone halved so often that its longest
// side has no float64 strictly between its edges: a split there would hand
// out an empty half and the zones would stop tiling the key space. The join
// fails instead; DetailZoneTooSmall is its wire detail token.
var ErrZoneTooSmall = errors.New("route: zone too small to split")

const DetailZoneTooSmall = "route/zone-too-small"

// SplitZone halves z along its longest side (lowest index on ties) and
// returns the half that keeps the current owner (kept) and the half handed
// to the joiner (taken — the one containing the join point), or
// ErrZoneTooSmall when the midpoint is one of the side's edges.
func SplitZone(z Zone, point []float64) (kept, taken Zone, err error) {
	splitDim, best := 0, -1.0
	for i := range z.Lo {
		if ext := z.Hi[i] - z.Lo[i]; ext > best {
			splitDim, best = i, ext
		}
	}
	mid := (z.Lo[splitDim] + z.Hi[splitDim]) / 2
	if mid <= z.Lo[splitDim] || mid >= z.Hi[splitDim] {
		return Zone{}, Zone{}, ErrZoneTooSmall
	}
	lower := Zone{Lo: cloneCoords(z.Lo), Hi: cloneCoords(z.Hi)}
	upper := Zone{Lo: cloneCoords(z.Lo), Hi: cloneCoords(z.Hi)}
	lower.Hi[splitDim] = mid
	upper.Lo[splitDim] = mid
	if point[splitDim] < mid {
		return upper, lower, nil
	}
	return lower, upper, nil
}

// UnionBox returns the union of two zones when it forms a valid box: the
// zones must agree on every dimension except one, where they abut.
func UnionBox(a, b Zone) (Zone, bool) {
	joinDim := -1
	for i := range a.Lo {
		if a.Lo[i] == b.Lo[i] && a.Hi[i] == b.Hi[i] {
			continue
		}
		if joinDim >= 0 {
			return Zone{}, false // differ in more than one dimension
		}
		if a.Hi[i] == b.Lo[i] || b.Hi[i] == a.Lo[i] {
			joinDim = i
			continue
		}
		return Zone{}, false // differ but do not abut
	}
	if joinDim < 0 {
		return Zone{}, false // identical zones (impossible between nodes)
	}
	out := Zone{Lo: cloneCoords(a.Lo), Hi: cloneCoords(a.Hi)}
	if a.Hi[joinDim] == b.Lo[joinDim] {
		out.Hi[joinDim] = b.Hi[joinDim]
	} else {
		out.Lo[joinDim] = b.Lo[joinDim]
	}
	return out, true
}

// ZonesAdjacent reports CAN neighborship: the zones abut along exactly one
// dimension (touching boundaries, torus-wrapped) and overlap along every
// other dimension.
func ZonesAdjacent(a, b Zone) bool {
	abut, overlap := 0, 0
	d := len(a.Lo)
	for i := 0; i < d; i++ {
		switch spanRelation(a.Lo[i], a.Hi[i], b.Lo[i], b.Hi[i]) {
		case spanOverlap:
			overlap++
		case spanAbut:
			abut++
		default:
			return false
		}
	}
	if d == 1 {
		return abut == 1 || overlap == 1
	}
	// Zones that overlap in every dimension can only be the two halves of a
	// not-yet-split axis pairing with a full-span axis; treat full overlap in
	// all dims as adjacency too (happens transiently with <= 2 nodes).
	return (abut == 1 && overlap == d-1) || overlap == d
}

// ZoneSetsAdjacent reports whether any zone of a is CAN-adjacent to any
// zone of b (multi-zone nodes behave as the union of their zones).
func ZoneSetsAdjacent(a, b []Zone) bool {
	for _, za := range a {
		for _, zb := range b {
			if ZonesAdjacent(za, zb) {
				return true
			}
		}
	}
	return false
}

type spanRel int

const (
	spanDisjoint spanRel = iota
	spanAbut
	spanOverlap
)

// spanRelation classifies two half-open intervals on the unit circle.
func spanRelation(alo, ahi, blo, bhi float64) spanRel {
	afull := ahi-alo >= 1
	bfull := bhi-blo >= 1
	if afull || bfull {
		return spanOverlap
	}
	// Positive-measure intersection (no wrap: split intervals never wrap).
	if alo < bhi && blo < ahi {
		return spanOverlap
	}
	// Abutment, including across the torus seam at 0/1.
	if ahi == blo || bhi == alo {
		return spanAbut
	}
	if (ahi == 1 && blo == 0) || (bhi == 1 && alo == 0) {
		return spanAbut
	}
	return spanDisjoint
}

// ZonesVolume is the total key-space volume of a zone set.
func ZonesVolume(zs []Zone) float64 {
	var v float64
	for _, z := range zs {
		v += z.Volume()
	}
	return v
}

// Circumsphere returns the center and circumradius of the zone box: the
// smallest sphere that covers the whole zone. A node recovering records for
// a zone it just took over searches this sphere — every surviving replica
// of a record intersecting the zone lives inside it.
func (z Zone) Circumsphere() (center []float64, radius float64) {
	center = make([]float64, len(z.Lo))
	var s float64
	for i := range z.Lo {
		center[i] = (z.Lo[i] + z.Hi[i]) / 2
		h := (z.Hi[i] - z.Lo[i]) / 2
		s += h * h
	}
	return center, math.Sqrt(s)
}

// Candidate is one surviving neighbor competing to take over a departing
// node's zone.
type Candidate struct {
	ID    int
	Zones []Zone
}

// Takeover is one zone-assignment decision: the elected taker and, when the
// zone box-merges with one of the taker's existing zones, the index of that
// zone in the taker's zone list at the time of the assignment (-1 for an
// annex, where the taker keeps the zone as an extra).
type Takeover struct {
	Taker int
	Merge int
}

// chooseTaker elects the taker for one zone following the CAN departure
// rule: the first candidate (in list order) holding a zone whose union with
// z forms a valid box merges it; otherwise the candidate managing the least
// total volume (first strict minimum) annexes it.
func chooseTaker(z Zone, cands []Candidate) (Takeover, bool) {
	for _, c := range cands {
		for zi, nz := range c.Zones {
			if _, ok := UnionBox(z, nz); ok {
				return Takeover{Taker: c.ID, Merge: zi}, true
			}
		}
	}
	taker, best := -1, math.Inf(1)
	for _, c := range cands {
		if v := ZonesVolume(c.Zones); v < best {
			best, taker = v, c.ID
		}
	}
	if taker < 0 {
		return Takeover{}, false
	}
	return Takeover{Taker: taker, Merge: -1}, true
}

// ElectTakers assigns each of a departing (or crashed) node's zones to a
// surviving neighbor, one zone at a time, tracking the candidates' growing
// zone sets exactly as the applied takeovers will: a merge rewrites the
// candidate's merged zone in place, an annex appends. Candidates must be
// the departing node's alive neighbors in neighbor-list (ascending id)
// order. Returns one Takeover per zone, in zone order, or false when a zone
// has no candidate. The input zone sets are not modified.
func ElectTakers(zones []Zone, cands []Candidate) ([]Takeover, bool) {
	local := make([]Candidate, len(cands))
	for i, c := range cands {
		local[i] = Candidate{ID: c.ID, Zones: append([]Zone(nil), c.Zones...)}
	}
	out := make([]Takeover, 0, len(zones))
	for _, z := range zones {
		tk, ok := chooseTaker(z, local)
		if !ok {
			return nil, false
		}
		for i := range local {
			if local[i].ID != tk.Taker {
				continue
			}
			if tk.Merge >= 0 {
				u, ok := UnionBox(z, local[i].Zones[tk.Merge])
				if !ok {
					return nil, false // unreachable: chooseTaker validated it
				}
				local[i].Zones[tk.Merge] = u
			} else {
				local[i].Zones = append(local[i].Zones, z)
			}
			break
		}
		out = append(out, tk)
	}
	return out, true
}

// SplitRecords redistributes a node's stored records across a join split.
// ownerZones is the owner's full zone set after the split (the kept half
// plus any other zones it manages); joinerZones is the joiner's (the taken
// half). Owned records follow their centroid; each side additionally keeps
// a replica of any sphere overlapping it from the other side; existing
// replicas stay wherever they still overlap. Relative record order is
// preserved — the determinism oracle depends on it.
func SplitRecords(owned, replicas []RecordView, ownerZones, joinerZones []Zone) (ownerOwned, ownerReplicas, joinerOwned, joinerReplicas []RecordView) {
	for _, rec := range owned {
		toJoiner := ZonesContain(joinerZones, rec.Entry.Key)
		if toJoiner {
			joinerOwned = append(joinerOwned, rec)
		} else {
			ownerOwned = append(ownerOwned, rec)
		}
		if rec.Entry.Radius > 0 {
			if toJoiner {
				if ZonesIntersect(ownerZones, rec.Entry.Key, rec.Entry.Radius) {
					ownerReplicas = append(ownerReplicas, rec)
				}
			} else if ZonesIntersect(joinerZones, rec.Entry.Key, rec.Entry.Radius) {
				joinerReplicas = append(joinerReplicas, rec)
			}
		}
	}
	for _, rec := range replicas {
		if ZonesIntersect(ownerZones, rec.Entry.Key, rec.Entry.Radius) {
			ownerReplicas = append(ownerReplicas, rec)
		}
		if ZonesIntersect(joinerZones, rec.Entry.Key, rec.Entry.Radius) {
			joinerReplicas = append(joinerReplicas, rec)
		}
	}
	return ownerOwned, ownerReplicas, joinerOwned, joinerReplicas
}

// ApplyRecovery merges the records a takeover recovery search found into
// the taker's stores. z is the zone just taken over; zones is the taker's
// full zone set (z included); found must be seq-sorted and deduplicated.
// Records whose sphere misses z are ignored. A record whose centroid now
// lies in the taker's zones becomes owned — promoting an already-held
// replica (the crashed node was its owner; someone must own it again) —
// while the rest land as replicas unless already held. Returns the updated
// stores and the number of records added or promoted.
func ApplyRecovery(zones []Zone, z Zone, owned, replicas, found []RecordView) ([]RecordView, []RecordView, int) {
	changed := 0
	for _, rec := range found {
		if !z.IntersectsSphere(rec.Entry.Key, rec.Entry.Radius) {
			continue
		}
		if ZonesContain(zones, rec.Entry.Key) {
			if hasSeq(owned, rec.Seq) {
				continue
			}
			replicas = dropSeq(replicas, rec.Seq)
			owned = append(owned, rec)
			changed++
		} else if !hasSeq(owned, rec.Seq) && !hasSeq(replicas, rec.Seq) {
			replicas = append(replicas, rec)
			changed++
		}
	}
	return owned, replicas, changed
}

func hasSeq(recs []RecordView, seq int) bool {
	for _, r := range recs {
		if r.Seq == seq {
			return true
		}
	}
	return false
}

func dropSeq(recs []RecordView, seq int) []RecordView {
	out := recs[:0]
	for _, r := range recs {
		if r.Seq != seq {
			out = append(out, r)
		}
	}
	return out
}

// VerifyTiling checks that the zone sets of the alive nodes exactly tile
// the unit torus: total volume 1 and no positive-measure pairwise overlap.
// Returns false when a gap or an overlap exists. The volumes are summed as
// exact rationals: a float64 sum rounds as soon as one zone is smaller than
// 2^-53 of the space, which some fifty joins into the same spot produce.
func VerifyTiling(zoneSets [][]Zone) bool {
	var all []Zone
	total, lo, hi := new(big.Rat), new(big.Rat), new(big.Rat)
	for _, zs := range zoneSets {
		all = append(all, zs...)
		for _, z := range zs {
			vol := big.NewRat(1, 1)
			for i := range z.Lo {
				lo.SetFloat64(z.Lo[i])
				hi.SetFloat64(z.Hi[i])
				vol.Mul(vol, hi.Sub(hi, lo))
			}
			total.Add(total, vol)
		}
	}
	if total.Cmp(big.NewRat(1, 1)) != 0 {
		return false
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if zonesOverlap(all[i], all[j]) {
				return false
			}
		}
	}
	return true
}

// zonesOverlap reports positive-measure intersection of two boxes.
func zonesOverlap(a, b Zone) bool {
	for i := range a.Lo {
		if spanRelation(a.Lo[i], a.Hi[i], b.Lo[i], b.Hi[i]) != spanOverlap {
			return false
		}
	}
	return true
}

func cloneCoords(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
