// Package manet models the physical layer of the mobile ad-hoc network the
// paper targets (§1: co-located users with Bluetooth-class radios). It
// provides:
//
//   - node placement in a bounded arena and a disk-graph connectivity model
//     (two devices hear each other iff within radio range);
//   - physical multi-hop routing (shortest hop count, precomputed by BFS),
//     so one overlay hop between two peers is charged its true physical cost;
//   - a per-message energy model with transmit/receive costs, the quantity
//     the paper's energy-efficiency motivation is about.
//
// The paper evaluates in overlay hop counts; this package lets the harness
// additionally report modeled wall time and joules for the same runs.
package manet

import (
	"fmt"
	"math"
	"math/rand"
)

// Position is a 2-D device location in meters.
type Position struct{ X, Y float64 }

// Dist returns the Euclidean distance to q in meters.
func (p Position) Dist(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Config describes the physical deployment.
type Config struct {
	// Nodes is the number of devices.
	Nodes int
	// ArenaSide is the square arena side length in meters (e.g. a 50 m
	// conference hall).
	ArenaSide float64
	// Range is the radio range in meters (Bluetooth class 2 ≈ 10 m).
	Range float64
}

// maxPlacementTries bounds the rejection sampling used to find a connected
// placement.
const maxPlacementTries = 200

// DefaultEnergy is a Bluetooth-class energy model: roughly 100 nJ/byte to
// transmit, 50 nJ/byte to receive, plus fixed per-message radio wake costs.
var DefaultEnergy = EnergyModel{
	TxPerByte: 100e-9,
	RxPerByte: 50e-9,
	TxFixed:   50e-6,
	RxFixed:   25e-6,
}

// EnergyModel prices a single physical transmission.
type EnergyModel struct {
	TxPerByte float64 // joules per byte transmitted
	RxPerByte float64 // joules per byte received
	TxFixed   float64 // joules per message sent (radio wake-up, preamble)
	RxFixed   float64 // joules per message received
}

// MessageEnergy returns the total joules consumed sending a message of the
// given size across physHops physical transmissions (each hop is one
// transmit plus one receive).
func (m EnergyModel) MessageEnergy(bytes, physHops int) float64 {
	if physHops <= 0 {
		return 0
	}
	perHop := m.TxFixed + m.RxFixed + float64(bytes)*(m.TxPerByte+m.RxPerByte)
	return perHop * float64(physHops)
}

// Network is a static snapshot of the physical MANET: placements, the disk
// connectivity graph, and all-pairs shortest physical hop counts.
type Network struct {
	cfg       Config
	positions []Position
	adj       [][]int
	hops      [][]int16 // hops[a][b]: physical hops on the shortest path
}

// ErrDisconnected is returned by New when no connected placement was found
// within maxPlacementTries.
type ErrDisconnected struct{ Tries int }

func (e ErrDisconnected) Error() string {
	return fmt.Sprintf("manet: no connected placement found in %d tries (arena too large for the radio range?)", e.Tries)
}

// New places cfg.Nodes devices uniformly at random in the arena, resampling
// until the disk graph is connected, and precomputes all-pairs physical hop
// counts. All randomness comes from rng.
func New(cfg Config, rng *rand.Rand) (*Network, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("manet: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Range <= 0 || cfg.ArenaSide <= 0 {
		return nil, fmt.Errorf("manet: range and arena side must be positive")
	}
	if rng == nil {
		return nil, fmt.Errorf("manet: rng must be non-nil")
	}
	for try := 0; try < maxPlacementTries; try++ {
		pos := make([]Position, cfg.Nodes)
		for i := range pos {
			pos[i] = Position{X: rng.Float64() * cfg.ArenaSide, Y: rng.Float64() * cfg.ArenaSide}
		}
		n := &Network{cfg: cfg, positions: pos}
		n.buildAdjacency()
		if n.connected() {
			n.buildHopMatrix()
			return n, nil
		}
	}
	return nil, ErrDisconnected{Tries: maxPlacementTries}
}

func (n *Network) buildAdjacency() {
	N := len(n.positions)
	n.adj = make([][]int, N)
	for i := 0; i < N; i++ {
		for j := i + 1; j < N; j++ {
			if n.positions[i].Dist(n.positions[j]) <= n.cfg.Range {
				n.adj[i] = append(n.adj[i], j)
				n.adj[j] = append(n.adj[j], i)
			}
		}
	}
}

func (n *Network) connected() bool {
	N := len(n.positions)
	seen := make([]bool, N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range n.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == N
}

func (n *Network) buildHopMatrix() {
	N := len(n.positions)
	n.hops = make([][]int16, N)
	for src := 0; src < N; src++ {
		dist := make([]int16, N)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range n.adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		n.hops[src] = dist
	}
}

// Nodes returns the number of devices.
func (n *Network) Nodes() int { return len(n.positions) }

// Position returns the placement of device i.
func (n *Network) Position(i int) Position { return n.positions[i] }

// Neighbors returns the devices within radio range of i.
func (n *Network) Neighbors(i int) []int { return n.adj[i] }

// PhysicalHops returns the number of radio transmissions on the shortest
// path from a to b (0 when a == b).
func (n *Network) PhysicalHops(a, b int) int { return int(n.hops[a][b]) }

// AvgPathHops returns the mean physical hop count over all ordered pairs of
// distinct devices — a density summary of the deployment.
func (n *Network) AvgPathHops() float64 {
	N := len(n.positions)
	if N < 2 {
		return 0
	}
	var sum float64
	for a := 0; a < N; a++ {
		for b := 0; b < N; b++ {
			if a != b {
				sum += float64(n.hops[a][b])
			}
		}
	}
	return sum / float64(N*(N-1))
}

// MessageCost converts one overlay message from a to b of the given size
// into physical transmissions, modeled joules and modeled seconds.
type MessageCost struct {
	PhysHops int
	Joules   float64
	Seconds  float64
}

// Cost prices one overlay message using the energy model and a per-physical-
// hop latency (seconds). Sending to oneself costs nothing.
func (n *Network) Cost(a, b, bytes int, energy EnergyModel, hopLatency float64) MessageCost {
	h := n.PhysicalHops(a, b)
	return MessageCost{
		PhysHops: h,
		Joules:   energy.MessageEnergy(bytes, h),
		Seconds:  hopLatency * float64(h),
	}
}
