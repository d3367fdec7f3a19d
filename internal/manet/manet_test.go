package manet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testNet(t *testing.T, nodes int, seed int64) *Network {
	t.Helper()
	n, err := New(Config{Nodes: nodes, ArenaSide: 50, Range: 15}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestNewConnected(t *testing.T) {
	n := testNet(t, 50, 1)
	if n.Nodes() != 50 {
		t.Fatalf("Nodes = %d", n.Nodes())
	}
	// Connectivity implies every pair has a finite hop count.
	for a := 0; a < n.Nodes(); a++ {
		for b := 0; b < n.Nodes(); b++ {
			h := n.PhysicalHops(a, b)
			if a == b && h != 0 {
				t.Fatalf("self hops = %d", h)
			}
			if a != b && h < 1 {
				t.Fatalf("hops(%d,%d) = %d, want >= 1", a, b, h)
			}
		}
	}
}

func TestHopSymmetry(t *testing.T) {
	n := testNet(t, 40, 2)
	for a := 0; a < n.Nodes(); a++ {
		for b := a + 1; b < n.Nodes(); b++ {
			if n.PhysicalHops(a, b) != n.PhysicalHops(b, a) {
				t.Fatalf("asymmetric hops between %d and %d", a, b)
			}
		}
	}
}

func TestNeighborsWithinRange(t *testing.T) {
	n := testNet(t, 30, 3)
	for i := 0; i < n.Nodes(); i++ {
		for _, j := range n.Neighbors(i) {
			if d := n.Position(i).Dist(n.Position(j)); d > 15 {
				t.Fatalf("neighbor %d-%d at distance %v > range", i, j, d)
			}
			if n.PhysicalHops(i, j) != 1 {
				t.Fatalf("direct neighbors %d-%d should be 1 hop", i, j)
			}
		}
	}
}

// Property: physical hop counts obey the triangle inequality (they are
// shortest paths).
func TestPropHopTriangle(t *testing.T) {
	n := testNet(t, 25, 4)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%n.Nodes(), int(b)%n.Nodes(), int(c)%n.Nodes()
		return n.PhysicalHops(x, z) <= n.PhysicalHops(x, y)+n.PhysicalHops(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSingleNode(t *testing.T) {
	n := testNet(t, 1, 5)
	if n.AvgPathHops() != 0 {
		t.Error("single node should have zero average path length")
	}
	if n.PhysicalHops(0, 0) != 0 {
		t.Error("self hops should be 0")
	}
}

func TestDisconnectedError(t *testing.T) {
	// 2 nodes in a huge arena with tiny range: connection is effectively
	// impossible, New must give up with ErrDisconnected.
	_, err := New(Config{Nodes: 2, ArenaSide: 1e6, Range: 0.001},
		rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("expected error for impossible placement")
	}
	if _, ok := err.(ErrDisconnected); !ok {
		t.Fatalf("error type %T, want ErrDisconnected", err)
	}
	if err.Error() == "" {
		t.Error("error message empty")
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(Config{Nodes: 0, ArenaSide: 10, Range: 5}, rng); err == nil {
		t.Error("expected error for zero nodes")
	}
	if _, err := New(Config{Nodes: 5, ArenaSide: 0, Range: 5}, rng); err == nil {
		t.Error("expected error for zero arena")
	}
	if _, err := New(Config{Nodes: 5, ArenaSide: 10, Range: 0}, rng); err == nil {
		t.Error("expected error for zero range")
	}
	if _, err := New(Config{Nodes: 5, ArenaSide: 10, Range: 5}, nil); err == nil {
		t.Error("expected error for nil rng")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	a := testNet(t, 20, 7)
	b := testNet(t, 20, 7)
	for i := 0; i < 20; i++ {
		if a.Position(i) != b.Position(i) {
			t.Fatal("same seed gave different placements")
		}
	}
}

func TestEnergyModel(t *testing.T) {
	m := EnergyModel{TxPerByte: 1, RxPerByte: 2, TxFixed: 10, RxFixed: 20}
	// One hop, 5 bytes: 10+20 fixed + 5*(1+2) = 45.
	if got := m.MessageEnergy(5, 1); got != 45 {
		t.Errorf("MessageEnergy = %v, want 45", got)
	}
	// Three hops triple it.
	if got := m.MessageEnergy(5, 3); got != 135 {
		t.Errorf("MessageEnergy 3 hops = %v, want 135", got)
	}
	if got := m.MessageEnergy(5, 0); got != 0 {
		t.Errorf("zero hops should cost nothing, got %v", got)
	}
}

func TestCost(t *testing.T) {
	n := testNet(t, 10, 8)
	m := EnergyModel{TxPerByte: 1, RxPerByte: 1, TxFixed: 0, RxFixed: 0}
	c := n.Cost(0, 0, 100, m, 0.01)
	if c.PhysHops != 0 || c.Joules != 0 || c.Seconds != 0 {
		t.Errorf("self message should be free: %+v", c)
	}
	c = n.Cost(0, 1, 100, m, 0.01)
	wantJ := float64(c.PhysHops) * 200
	if math.Abs(c.Joules-wantJ) > 1e-12 {
		t.Errorf("Joules = %v, want %v", c.Joules, wantJ)
	}
	if math.Abs(c.Seconds-0.01*float64(c.PhysHops)) > 1e-12 {
		t.Errorf("Seconds = %v", c.Seconds)
	}
}

func TestAvgPathHopsPositive(t *testing.T) {
	n := testNet(t, 30, 9)
	avg := n.AvgPathHops()
	if avg < 1 {
		t.Errorf("AvgPathHops = %v, want >= 1 for 30 nodes", avg)
	}
	// In a 50m arena with 15m range, paths should stay short.
	if avg > 10 {
		t.Errorf("AvgPathHops = %v suspiciously large", avg)
	}
}

func TestDefaultEnergyPlausible(t *testing.T) {
	// A 1 KiB message over 3 hops should cost on the order of a millijoule,
	// not joules — sanity-check the default constants.
	j := DefaultEnergy.MessageEnergy(1024, 3)
	if j <= 0 || j > 0.01 {
		t.Errorf("default energy for 1KiB x3 hops = %v J, implausible", j)
	}
}
