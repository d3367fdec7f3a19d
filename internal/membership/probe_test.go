package membership

import (
	"context"
	"sync"
	"testing"
	"time"

	"hyperm/internal/route"
)

// neighborsOf returns the ids currently holding id in their level-0 table.
func neighborsOf(f *fakeFabric, id int) []int {
	var out []int
	for _, m := range f.alive() {
		if findNeighbor(m.View(0).Neighbors, id) >= 0 {
			out = append(out, m.Self())
		}
	}
	return out
}

// TestProbeFailureClassification drives the failure detector through the
// slow-vs-dead edge cases: timeouts from a slow-but-alive peer must never
// accumulate into a takeover once the peer answers again, while a peer that
// stays unreachable — slow first or abruptly gone — must be declared dead
// after exactly FailAfter consecutive failures, with its zone taken over and
// the cluster state matching the simulator's crash of the same node.
func TestProbeFailureClassification(t *testing.T) {
	const nodes, dim, victim = 8, 2, 5
	opts := Options{FailAfter: 3, ProbeTimeout: 10 * time.Millisecond}
	cases := []struct {
		name string
		// rounds scripts the victim's behavior per probe round:
		// 's' stalls (timeout), 'u' answers (up), 'x' is crashed.
		rounds   string
		wantDead bool
	}{
		// Two timeouts, a recovery that resets the counter, two more
		// timeouts: never FailAfter consecutive failures, never declared.
		{name: "slow-but-alive", rounds: "ssuss", wantDead: false},
		// Dead on the floor: exactly FailAfter unreachable rounds.
		{name: "dead", rounds: "xxx", wantDead: true},
		// Slow, then the process dies: the timeout failures and the
		// connection failures accumulate into one consecutive run.
		{name: "slow-then-dead", rounds: "ssx", wantDead: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o, f, _ := buildPair(t, 3, nodes, dim, 20, opts)
			addr := testAddr(victim)
			probeRound(f) // warm detector tables before any failure
			watchers := neighborsOf(f, victim)
			for _, r := range tc.rounds {
				switch r {
				case 's':
					f.setDelay(addr, true)
				case 'u':
					f.setDelay(addr, false)
				case 'x':
					f.setDelay(addr, false)
					f.crash(addr)
				}
				probeRound(f)
			}
			waitIdle(t, f)

			if tc.wantDead {
				if nbs := neighborsOf(f, victim); len(nbs) != 0 {
					t.Fatalf("victim still in neighbor tables of %v after takeover", nbs)
				}
				// Every node that had the victim in its table — the ones
				// whose routing would break — must have learned of the
				// crash; distant nodes never needed to.
				for _, id := range watchers {
					if m, _, _ := f.lookup(testAddr(id)); !m.IsDead(victim) {
						t.Fatalf("neighbor %d never learned of the crash", id)
					}
				}
				if _, err := o.Crash(victim); err != nil {
					t.Fatalf("oracle crash: %v", err)
				}
			} else {
				if m, _, _ := f.lookup(addr); m.IsDead(victim) {
					t.Fatal("victim wrongly marked dead on its own manager's peers")
				}
				for _, m := range f.alive() {
					if m.IsDead(victim) {
						t.Fatalf("node %d declared the slow-but-alive victim dead", m.Self())
					}
				}
			}
			comparePair(t, tc.name, o, f)
		})
	}
}

// TestProbeTimeoutRacesGracefulLeave pins the detector's behavior when a
// leave notice and a probe failure race: a detector one failure short of
// declaring a peer dead processes the peer's graceful departure, then the
// late probe timeout lands. The failure must be discarded — no election, no
// claim — because the records already moved through the handoff, and a
// takeover would duplicate them.
func TestProbeTimeoutRacesGracefulLeave(t *testing.T) {
	const nodes, dim = 8, 2
	opts := Options{FailAfter: 3, ProbeTimeout: 10 * time.Millisecond}
	o, f, mgrs := buildPair(t, 11, nodes, dim, 20, opts)
	probeRound(f)

	leaver := 2
	nbs := neighborsOf(f, leaver)
	if len(nbs) == 0 {
		t.Fatal("leaver has no neighbors")
	}
	det := mgrs[nbs[0]]

	// The detector has already seen FailAfter-1 probe timeouts.
	det.mu.Lock()
	det.fails[leaver] = opts.FailAfter - 1
	det.mu.Unlock()

	if _, err := o.Leave(leaver); err != nil {
		t.Fatal(err)
	}
	if err := mgrs[leaver].Leave(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.crash(testAddr(leaver))

	// The in-flight probe fails after the leave was processed.
	det.noteProbe(leaver, nil, context.DeadlineExceeded)
	waitIdle(t, f)

	det.mu.RLock()
	claims := len(det.claims)
	det.mu.RUnlock()
	if claims != 0 {
		t.Fatalf("late probe failure raised %d takeover claims after a graceful leave", claims)
	}
	comparePair(t, "post-race", o, f)
}

// TestConflictingTakeoversConverge forces the double-claim scenario: two
// detectors with divergent cached knowledge each elect themselves for the
// same crashed zone and apply the claim before either announcement crosses.
// The lower node id must keep the zone; the higher must roll back to its
// pre-claim zone set and refilter its records, leaving a valid tiling with
// no record owned twice.
func TestConflictingTakeoversConverge(t *testing.T) {
	const nodes, dim = 8, 2
	opts := Options{FailAfter: 1, ProbeTimeout: 10 * time.Millisecond}
	_, f, mgrs := buildPair(t, 5, nodes, dim, 20, opts)
	probeRound(f)

	// Find a single-zone victim with at least two neighbors.
	victim := -1
	for _, m := range f.alive() {
		ls := m.View(0)
		if len(ls.Zones) == 1 && len(ls.Neighbors) >= 2 {
			victim = m.Self()
			break
		}
	}
	if victim < 0 {
		t.Fatal("no single-zone node with two neighbors")
	}
	vZones := mgrs[victim].View(0).Zones
	nbs := neighborsOf(f, victim)
	a, b := mgrs[nbs[0]], mgrs[nbs[1]]
	if a.Self() > b.Self() {
		a, b = b, a
	}

	// Divergent knowledge: each detector believes it is the victim's only
	// neighbor, so each elects itself for the victim's zone.
	rig := func(m *Manager) {
		m.mu.Lock()
		m.tables[victim] = []LevelTable{{
			Zones:     cloneZones(vZones),
			Neighbors: []Neighbor{{ID: m.self, Addr: m.selfAddr, Zones: cloneZones(m.levels[0].Zones)}},
		}}
		m.mu.Unlock()
	}
	rig(a)
	rig(b)
	f.crash(testAddr(victim))

	// Both claims land before either announcement is delivered.
	a.mu.Lock()
	outsA, recA := a.declareDeadLocked(victim)
	a.mu.Unlock()
	b.mu.Lock()
	outsB, recB := b.declareDeadLocked(victim)
	b.mu.Unlock()
	for _, m := range []*Manager{a, b} {
		if !route.ZonesContain(m.View(0).Zones, zoneCenter(vZones[0])) {
			t.Fatalf("node %d did not claim the zone before the conflict", m.Self())
		}
	}
	bBefore := b.View(0)

	// The announcements cross: b hears a's claim, a hears b's.
	annA := encodeTakeoverMsg(TakeoverMsg{
		Level: 0, Crashed: victim, Zone: vZones[0],
		Taker: a.Self(), TakerAddr: testAddr(a.Self()), TakerZones: a.View(0).Zones,
	})
	annB := encodeTakeoverMsg(TakeoverMsg{
		Level: 0, Crashed: victim, Zone: vZones[0],
		Taker: b.Self(), TakerAddr: testAddr(b.Self()), TakerZones: bBefore.Zones,
	})
	if _, err := b.HandleRPC(context.Background(), MethodTakeover, annA); err != nil {
		t.Fatal(err)
	}
	if _, err := a.HandleRPC(context.Background(), MethodTakeover, annB); err != nil {
		t.Fatal(err)
	}
	// Deliver the non-crossing announcements too, then let republishes run.
	a.sendAll(outsA)
	b.sendAll(outsB)
	go a.runRecoveries(recA)
	go b.runRecoveries(recB)
	waitIdle(t, f)

	center := zoneCenter(vZones[0])
	if !route.ZonesContain(a.View(0).Zones, center) {
		t.Fatalf("lower-id claimant %d lost the zone", a.Self())
	}
	if route.ZonesContain(b.View(0).Zones, center) {
		t.Fatalf("higher-id claimant %d kept the conflicted zone", b.Self())
	}
	b.mu.RLock()
	bClaims := len(b.claims)
	b.mu.RUnlock()
	if bClaims != 0 {
		t.Fatalf("loser still holds %d claims", bClaims)
	}

	// The overall tiling must be whole again, and no record owned twice.
	var tiles [][]route.Zone
	ownedBy := map[int]int{}
	for _, m := range f.alive() {
		ls := m.View(0)
		tiles = append(tiles, ls.Zones)
		for _, rec := range ls.Owned {
			if prev, dup := ownedBy[rec.Seq]; dup {
				t.Fatalf("record %d owned by both %d and %d", rec.Seq, prev, m.Self())
			}
			ownedBy[rec.Seq] = m.Self()
		}
	}
	if !route.VerifyTiling(tiles) {
		t.Fatal("zones do not tile after conflict resolution")
	}
}

// TestStopProbingCutsPingsShort: a probe round runs under the loop's stop, so
// StopProbing ends the pings to a blackholed neighborhood at once instead of
// waiting out ProbeTimeout, and a ping it cut short is no evidence against
// the neighbor — with FailAfter 1, one counted failure would declare it dead.
func TestStopProbingCutsPingsShort(t *testing.T) {
	const nodes, dim = 8, 2
	opts := Options{ProbeInterval: time.Millisecond, ProbeTimeout: 5 * time.Second, FailAfter: 1}
	_, f, mgrs := buildPair(t, 3, nodes, dim, 20, opts)
	pinged := make(chan struct{})
	var once sync.Once
	f.tap = func(addr, method string, body []byte) {
		if method == MethodPing {
			once.Do(func() { close(pinged) })
		}
	}
	for id := 0; id < nodes; id++ {
		f.setDelay(testAddr(id), true) // every ping blocks until its ctx ends
	}
	m := mgrs[0]
	m.StartProbing()
	select {
	case <-pinged:
	case <-time.After(5 * time.Second):
		t.Fatal("the probe loop sent no ping")
	}
	start := time.Now()
	m.StopProbing()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("StopProbing took %v: it waited out the %v probe timeout", d, opts.ProbeTimeout)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for id := 1; id < nodes; id++ {
		if m.dead[id] || m.fails[id] != 0 {
			t.Fatalf("neighbor %d suspected during shutdown: dead %v, %d failures", id, m.dead[id], m.fails[id])
		}
	}
}
