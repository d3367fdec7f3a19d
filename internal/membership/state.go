// Package membership is the live zone-maintenance protocol of the serving
// runtime: node joins (zone split with cluster-ref handoff), graceful leaves
// (zone takeover), crash detection (liveness probes with neighbor takeover),
// and the post-takeover republisher that re-replicates cluster spheres after
// zone changes.
//
// Every topology *decision* — split geometry, taker election, record
// redistribution, recovery merge — is made by the shared maintenance helpers
// of internal/route, the same code the simulator (internal/can) runs. This
// package contributes only the distributed execution: who tells whom, in what
// message, with what failure handling. A live cluster that plays a churn
// schedule therefore converges to zones, neighbor tables, and record
// placements identical to a simulator replaying the same schedule — the
// property the churn soak (internal/node) asserts byte-for-byte.
package membership

import (
	"fmt"
	"slices"

	"hyperm/internal/route"
)

// Neighbor is one entry of a node's per-level routing table: the neighbor's
// id, its serving address, and its last-known zone set. Neighbor lists are
// kept sorted by id — the simulator's recomputeNeighbors yields id-sorted
// lists, and greedy tie-breaks follow list order, so sortedness is part of
// the determinism contract.
type Neighbor struct {
	ID    int
	Addr  string
	Zones []route.Zone
}

// LevelState is one node's slice of one CAN level: its zones, its sorted
// neighbor table, and its stored records (owned — centroid in zone — and
// replicas, each in storage order).
type LevelState struct {
	Zones     []route.Zone
	Neighbors []Neighbor
	Owned     []route.RecordView
	Replicas  []route.RecordView
}

// holds reports whether the level already stores record seq (owned or
// replica) — the receiver-side dedup of record transfers.
func (ls *LevelState) holds(seq int) bool {
	for _, r := range ls.Owned {
		if r.Seq == seq {
			return true
		}
	}
	for _, r := range ls.Replicas {
		if r.Seq == seq {
			return true
		}
	}
	return false
}

// findNeighbor returns the index of id in ns, or -1.
func findNeighbor(ns []Neighbor, id int) int {
	for i := range ns {
		if ns[i].ID == id {
			return i
		}
	}
	return -1
}

// upsertNeighbor replaces id's entry or inserts it at its sorted position.
func upsertNeighbor(ns []Neighbor, nb Neighbor) []Neighbor {
	for i := range ns {
		if ns[i].ID == nb.ID {
			ns[i] = nb
			return ns
		}
		if ns[i].ID > nb.ID {
			ns = append(ns, Neighbor{})
			copy(ns[i+1:], ns[i:])
			ns[i] = nb
			return ns
		}
	}
	return append(ns, nb)
}

// removeNeighbor drops id's entry, preserving order.
func removeNeighbor(ns []Neighbor, id int) []Neighbor {
	if i := findNeighbor(ns, id); i >= 0 {
		return append(ns[:i], ns[i+1:]...)
	}
	return ns
}

// candidates converts a sorted neighbor table into the takeover-candidate
// list route.ElectTakers expects, skipping departed peers.
func candidates(ns []Neighbor, dead map[int]bool) []route.Candidate {
	out := make([]route.Candidate, 0, len(ns))
	for _, nb := range ns {
		if !dead[nb.ID] {
			out = append(out, route.Candidate{ID: nb.ID, Zones: nb.Zones})
		}
	}
	return out
}

// assignment is one zone handover decision: the zone in the form a taker
// receives it, and the taker elected for it.
type assignment struct {
	Taker int
	ZoneAssign
}

// replayElection expands an ElectTakers result into per-zone assignments and
// each taker's final zone set, by replaying the takeovers over a copy of the
// candidate states exactly as ElectTakers simulated them. finals maps taker
// id to its complete zone set after all assignments.
func replayElection(zones []route.Zone, cands []route.Candidate, tks []route.Takeover) (assigns []assignment, finals map[int][]route.Zone) {
	local := make(map[int][]route.Zone, len(cands))
	for _, c := range cands {
		local[c.ID] = append([]route.Zone(nil), c.Zones...)
	}
	assigns = make([]assignment, 0, len(zones))
	for i, z := range zones {
		tk := tks[i]
		a := assignment{Taker: tk.Taker, ZoneAssign: ZoneAssign{Zone: z}}
		zs := local[tk.Taker]
		if tk.Merge >= 0 {
			a.Merge = true
			a.MergeWith = zs[tk.Merge]
			u, ok := route.UnionBox(z, zs[tk.Merge])
			if !ok {
				panic(fmt.Sprintf("membership: elected merge of %v into %v is not a box", z, zs[tk.Merge]))
			}
			zs[tk.Merge] = u
		} else {
			zs = append(zs, z)
		}
		local[tk.Taker] = zs
		assigns = append(assigns, a)
	}
	return assigns, local
}

// tableAt returns ts[l], or a zero LevelTable when the report is shorter —
// probe responses always carry every level, but the comparison must not
// assume it.
func tableAt(ts []LevelTable, l int) LevelTable {
	if l < len(ts) {
		return ts[l]
	}
	return LevelTable{}
}

// levelTableEqual reports whether two probe self-reports describe the same
// level state: equal zone sets and equal neighbor tables (id, address, and
// zones — a changed entry in either means churn happened near the reporter).
func levelTableEqual(a, b LevelTable) bool {
	return slices.EqualFunc(a.Zones, b.Zones, zoneEqual) &&
		slices.EqualFunc(a.Neighbors, b.Neighbors, func(x, y Neighbor) bool {
			return x.ID == y.ID && x.Addr == y.Addr && slices.EqualFunc(x.Zones, y.Zones, zoneEqual)
		})
}

// zoneEqual reports exact box equality.
func zoneEqual(a, b route.Zone) bool {
	return slices.Equal(a.Lo, b.Lo) && slices.Equal(a.Hi, b.Hi)
}

// indexOfZone returns the index of the zone equal to z, or -1.
func indexOfZone(zs []route.Zone, z route.Zone) int {
	for i := range zs {
		if zoneEqual(zs[i], z) {
			return i
		}
	}
	return -1
}

// zoneCenter is the midpoint of a zone box (used to test whether a claimed
// zone is still part of a node's zone set after merges).
func zoneCenter(z route.Zone) []float64 {
	c := make([]float64, len(z.Lo))
	for i := range z.Lo {
		c[i] = (z.Lo[i] + z.Hi[i]) / 2
	}
	return c
}

func cloneZones(zs []route.Zone) []route.Zone {
	if len(zs) == 0 {
		return nil
	}
	return append([]route.Zone(nil), zs...)
}

func cloneNeighbors(ns []Neighbor) []Neighbor {
	if len(ns) == 0 {
		return nil
	}
	return append([]Neighbor(nil), ns...)
}

func cloneRecords(rs []route.RecordView) []route.RecordView {
	if len(rs) == 0 {
		return nil
	}
	return append([]route.RecordView(nil), rs...)
}

// Clone returns a shallow-copy of the level state safe to read after the
// manager's lock is released: slice headers and their backing arrays are
// fresh, while zone coordinates, record keys, and payloads — which the
// protocol never mutates in place — stay shared.
func (ls *LevelState) Clone() LevelState {
	return LevelState{
		Zones:     cloneZones(ls.Zones),
		Neighbors: cloneNeighbors(ls.Neighbors),
		Owned:     cloneRecords(ls.Owned),
		Replicas:  cloneRecords(ls.Replicas),
	}
}
