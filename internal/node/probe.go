package node

import (
	"context"
	"sync"

	"hyperm/internal/core"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// One probe per peer per query.
//
// Every wavelet level runs its own CAN overlay, but over the same physical
// peers, and a query floods all of them: left alone, the L level lookups of
// one query each send their own can_search to mostly the same nodes. A
// probeTable is what the lookups of one query share instead. The first
// lookup whose machine asks for peer X sends X one can_search carrying the
// spheres of all levels; the other levels' lookups find X's answer already
// there, or wait on the RPC in flight. The route.Search machines, RunAlpha,
// their claim order and their Feeds are untouched — a lookup still sees, view
// for view, what a can_search of its own would have returned — so entries and
// hops (one per Feed) stay byte-identical to the oracle and only the number
// of messages drops.
//
// The spheres a probe carries beyond the one its sender needs are asked on
// speculation, and flagged so: the responder skips those that miss its zones
// (no flood claims a node its sphere does not touch). A machine that wants a
// skipped view after all — a routing-phase hop through a node off the sphere,
// or a flood acting on a neighbor table older than the responder's zones —
// asks again for that sphere alone, this time required.
type probeTable struct {
	n       *Node
	ctx     context.Context
	spheres []core.Sphere

	mu sync.Mutex
	// bodies[i] is the request that names sphere i as the one needed and the
	// rest as optional, encoded when the first probe on behalf of sphere i
	// leaves; probes is as lazy. A query whose every lookup stays in this
	// node's own zones builds neither.
	bodies [][]byte
	probes map[int]*probe
}

// probe is the future of one peer's answer.
type probe struct {
	done  chan struct{}
	views [][]byte // by sphere, still encoded; nil where the peer skipped it
	err   error
}

func (n *Node) newProbeTable(ctx context.Context, spheres []core.Sphere) *probeTable {
	return &probeTable{n: n, ctx: ctx, spheres: spheres}
}

// claim returns peer id's probe and, to the first caller to ask for it, the
// request body to send on behalf of sphere i (nil to everyone after).
func (t *probeTable) claim(id, i int) (p *probe, body []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p = t.probes[id]; p != nil {
		return p, nil
	}
	if t.probes == nil {
		t.probes = make(map[int]*probe)
		t.bodies = make([][]byte, len(t.spheres))
	}
	if t.bodies[i] == nil {
		reqs := make([]searchReq, len(t.spheres))
		for j, sp := range t.spheres {
			reqs[j] = searchReq{Level: sp.Level, Key: sp.Key, Radius: sp.Radius, Optional: j != i}
		}
		t.bodies[i] = transport.Encode(&reqs, walkSearchReq)
	}
	p = &probe{done: make(chan struct{})}
	t.probes[id] = p
	return p, t.bodies[i]
}

// sphereViews is the RPC-fetching ViewSource of a lookup nobody shares: a
// table of one sphere (which still spares a peer the second can_search when
// the flood revisits a node the routing phase went through).
func (n *Node) sphereViews(ctx context.Context, level int, key []float64, radius float64) route.ViewSource {
	return probeViews{n.newProbeTable(ctx, []core.Sphere{{Level: level, Key: key, Radius: radius}}), 0}
}

// probeViews is the ViewSource of sphere i of a table: View answers locally
// for the coordinator's own id and from the peer's probe otherwise,
// pre-filtered server-side to the records matching the sphere (the machine's
// own filter is idempotent, so pre-filtering cannot change the result). A
// view is decoded only here, when its level's machine asks for it.
type probeViews struct {
	t *probeTable
	i int
}

func (s probeViews) View(id int) (route.NodeView, error) {
	t, n, sp := s.t, s.t.n, s.t.spheres[s.i]
	if id == n.peer {
		return n.toNodeView(n.localView(sp.Level, sp.Key, sp.Radius)), nil
	}
	p, body := t.claim(id, s.i)
	if body != nil {
		p.views, p.err = n.callSearch(t.ctx, id, body, len(t.spheres))
		close(p.done)
	} else {
		<-p.done
	}
	if p.err != nil {
		// Every level that needs this peer fails on the one error.
		return route.NodeView{}, p.err
	}
	raw := p.views[s.i]
	if raw == nil {
		n.count(ctrCoordRequire)
		req := searchReq{Level: sp.Level, Key: sp.Key, Radius: sp.Radius}
		views, err := n.callSearch(t.ctx, id, transport.Encode(&[]searchReq{req}, walkSearchReq), 1)
		if err != nil {
			return route.NodeView{}, err
		}
		raw = views[0]
	}
	sv, err := transport.Decode(raw, walkSearchView)
	if err == nil {
		err = checkView(sp.Level, sv)
	}
	if err != nil {
		return route.NodeView{}, err
	}
	return n.toNodeView(sv), nil
}

// Scope gives one query a backend of its own: it carries the query's ctx,
// and its level searches go through one probe table.
func (b *netBackend) Scope(ctx context.Context, spheres []core.Sphere) core.Backend {
	return &netBackend{n: b.n, ctx: ctx, table: b.n.newProbeTable(ctx, spheres)}
}
