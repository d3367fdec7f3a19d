package node

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/route"
	"hyperm/internal/sim"
	"hyperm/internal/store"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// Config parameterizes one serving node.
type Config struct {
	// Snapshot is the peer's slice of the deployment (see ExtractSnapshot).
	Snapshot Snapshot
	// Transport carries this node's RPCs — both the endpoint it serves and
	// the calls it makes to other nodes. Typically shared by every node of
	// an in-process cluster (chan transport) or one per process (TCP).
	Transport transport.Transport
	// Listen is the address to serve on ("" lets the chan transport pick a
	// name; "127.0.0.1:0" lets TCP pick a port).
	Listen string
	// Retry is the policy for node→node calls. Zero value = defaults.
	Retry transport.Policy
	// Membership tunes the live membership protocol. The zero value serves
	// join/leave/handoff RPCs but runs no liveness probes (static clusters).
	Membership membership.Options
	// Tuning switches the coordinator's cache and streaming publish; the zero
	// value is the uncached reference. See Tuning.
	Tuning Tuning
}

// The coordinator's concurrency, each measured against serial in
// EXPERIMENTS.md "Leave-one-out: the coordinator's concurrency knobs". None of
// it reaches an answer (route.RunAlpha, core.Engine.SetParallelism, fetchAll)
// or a holder's records (route.RunFlood under a streamed publish's announce).
const (
	lookupAlpha = 3 // can_search probes, or announce store_recs, in flight per flood step (Kademlia's α)
	levelFanout = 8 // level searches at once: effectively all levels
	fetchFanout = 8 // phase-two fetches in flight, the coordinator's own scan included
)

// Tuning switches the coordinator's caching and the publish path. Caching
// preserves byte-identical answers (a memoized plan is reused only within the
// churn epoch it was built under, see the answer memo in fetchcache.go); it
// only trades memory for latency. The zero Tuning is the frozen uncached
// reference.
type Tuning struct {
	// CacheViews switches on the coordinator's one cache, the answer memo
	// (fetchcache.go): a range or k-nn request asked over the wire keeps its
	// plan (lookups, scores, selected peers) for the churn epoch, each scored
	// peer's answer as a slot until a publish there can change it, and its
	// encoded answer while it keeps every slot. Under StreamPublish,
	// whose record deltas bump no epoch, it keeps slots only. The views a
	// lookup runs over are never cached: every one comes from the query's
	// probe table.
	CacheViews bool
	// StreamPublish enables streaming incremental publish: Publish runs the
	// core stream kernel (absorb/grow/split, periodic re-cluster) against the
	// published summaries and announces the O(changed clusters) record deltas
	// as store_rec RPCs — routed to each record's owner and flooded across its
	// sphere — so the overlay stays fresh instead of degrading like Fig 10c.
	// Changes the answer by design (fresher summaries), byte-identically to
	// the simulator's StreamInsert oracle.
	StreamPublish bool
	// ReclusterEvery forwards to core.StreamTuning: re-cluster after this many
	// streamed inserts, 0 never. Only meaningful with StreamPublish.
	ReclusterEvery int
	// serial runs the coordinator one RPC at a time (every fan-out 1, a
	// streamed publish's levels one after the other): the reference the tests
	// count exact RPCs against.
	serial bool
}

// fan is n, or 1 for the serial coordinator.
func (t Tuning) fan(n int) int {
	if t.serial {
		return 1
	}
	return n
}

// Node hosts one peer: its items, published summaries, and per-level CAN
// slice. After Start it serves the node RPCs; after SetPeers it can answer
// queries (which require contacting other nodes). Safe for concurrent use.
//
// The per-level overlay state — zones, neighbor tables, stored records — is
// owned by the node's membership.Manager, which mutates it as peers join,
// leave, and crash around this node; queries read consistent copies from it.
type Node struct {
	peer   int
	cfg    core.Config
	mgr    *membership.Manager
	engine *core.Engine
	tr     transport.Transport
	client *transport.Client
	listen string

	mu sync.RWMutex // guards store, published, pubSeqs, stream, announced (publish vs fetch)
	// store is the node's flat item store (see internal/store): the serving
	// path scans it in place; Publish appends to it (the explicit copy point).
	store *store.Store
	// published is local bookkeeping only unless streaming is on: Publish
	// absorbs new items into it (core.AbsorbInsert) while the overlay records
	// stay stale, exactly like the simulator's PostInsert. With
	// Tuning.StreamPublish the kernel keeps it — and the overlay records —
	// fresh instead.
	published [][]core.ClusterRef
	// pubSeqs are the overlay identities of published (Snapshot.PubSeqs);
	// stream is the incremental-publish kernel state, built lazily on the
	// first streamed Publish; mappers rebuild the simulator's exact
	// bounds→key-space rule for the records streaming publish announces.
	pubSeqs [][]int
	stream  *core.StreamState
	mappers []core.KeyMapper
	// announced is closed once the latest streamed publish has announced its
	// record deltas; the next one swaps in its own under mu and waits on this
	// one outside it, so announces leave in kernel order (publishStream).
	announced chan struct{}

	srvMu sync.Mutex
	srv   transport.Server

	tuning   Tuning
	counters sim.Counters

	// The coherence state (coherence.go): the holder's directory and the
	// answer memo, the coordinator's one cache. Neither lock spans an RPC.
	fetchMu sync.Mutex
	dir     fetchDir
	ansMu   sync.Mutex
	memo    answerMemo
}

// levelFromView converts a snapshot level into membership state. Neighbor
// addresses are unknown at snapshot time; SetPeers fills them in.
func levelFromView(v can.NodeView) membership.LevelState {
	ls := membership.LevelState{
		Zones:    append([]route.Zone(nil), v.Zones...),
		Owned:    append([]route.RecordView(nil), v.Owned...),
		Replicas: append([]route.RecordView(nil), v.Replicas...),
	}
	for _, nb := range v.Neighbors {
		ls.Neighbors = append(ls.Neighbors, membership.Neighbor{ID: nb.ID, Zones: nb.Zones})
	}
	return ls
}

// New builds a node from its snapshot. The node is inert until Start.
func New(cfg Config) (*Node, error) {
	snap := cfg.Snapshot
	if cfg.Transport == nil {
		return nil, fmt.Errorf("node: transport is required")
	}
	if len(snap.Levels) != snap.Config.Levels {
		return nil, fmt.Errorf("node: snapshot has %d level views for %d levels", len(snap.Levels), snap.Config.Levels)
	}
	st := snap.Store
	if st == nil {
		st = store.New(snap.Config.Dim)
	}
	if st.Dim() != snap.Config.Dim {
		return nil, fmt.Errorf("node: snapshot store dim %d, want %d", st.Dim(), snap.Config.Dim)
	}
	n := &Node{
		peer:      snap.Peer,
		cfg:       snap.Config,
		tr:        cfg.Transport,
		client:    transport.NewClient(cfg.Transport, cfg.Retry),
		listen:    cfg.Listen,
		store:     st,
		published: snap.Published,
		pubSeqs:   snap.PubSeqs,
		tuning:    cfg.Tuning,
		memo:      answerMemo{slotsOnly: cfg.Tuning.StreamPublish},
	}
	if n.tuning.StreamPublish {
		n.mappers = core.BuildKeyMappers(snap.Bounds)
	}
	levels := make([]membership.LevelState, len(snap.Levels))
	for l, v := range snap.Levels {
		levels[l] = levelFromView(v)
	}
	n.mgr = membership.NewManager(snap.Peer, snap.ClusterSize, levels, n, cfg.Membership)
	engine, err := core.NewEngine(snap.Config, snap.Bounds, &netBackend{n: n, ctx: context.Background()})
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	// The RPC backend is safe for concurrent calls, so the engine can pipeline
	// the per-level searches; the phase-two fan-out is the backend's own.
	engine.SetParallelism(n.tuning.fan(levelFanout))
	n.engine = engine
	return n, nil
}

// Peer returns the node's peer id.
func (n *Node) Peer() int { return n.peer }

// Membership exposes the node's membership manager (overlay state reads,
// quiescence checks).
func (n *Node) Membership() *membership.Manager { return n.mgr }

// Start begins serving the node's RPC endpoint and, when a probe interval is
// configured, the liveness probe loop.
func (n *Node) Start() error {
	n.srvMu.Lock()
	defer n.srvMu.Unlock()
	if n.srv != nil {
		return fmt.Errorf("node: peer %d already started", n.peer)
	}
	srv, err := n.tr.Serve(n.listen, n.handle)
	if err != nil {
		return fmt.Errorf("node: peer %d: %w", n.peer, err)
	}
	n.srv = srv
	n.mgr.SetSelfAddr(srv.Addr())
	n.mgr.StartProbing()
	return nil
}

// Addr returns the served address (empty before Start).
func (n *Node) Addr() string {
	n.srvMu.Lock()
	defer n.srvMu.Unlock()
	if n.srv == nil {
		return ""
	}
	return n.srv.Addr()
}

// SetPeers installs the cluster address book: addrs[p] is peer p's serving
// address. Must be called (on every node) after all nodes have started and
// before any query traffic. Nodes joining later are learned dynamically —
// from join grants, zone updates, and the views crossing can_search RPCs.
func (n *Node) SetPeers(addrs []string) {
	n.mgr.SeedBook(addrs)
}

func (n *Node) peerAddr(p int) (string, error) {
	return n.mgr.Addr(p)
}

// Join brings this (empty) node into the running cluster reachable at the
// bootstrap address, splitting the zone owning points[l] at each level l.
// The node must be started first (the grant references our address).
func (n *Node) Join(ctx context.Context, bootstrap string, points [][]float64) error {
	return n.mgr.Join(ctx, bootstrap, points)
}

// Leave removes this node gracefully: its zones and records are handed to
// elected neighbors on every level. The endpoint keeps serving until Stop so
// in-flight protocol traffic can drain.
func (n *Node) Leave(ctx context.Context) error {
	return n.mgr.Leave(ctx)
}

// Stop tears down the probe loop and the RPC endpoint. In-flight requests
// are abandoned (their callers see a retryable transport fault). Idempotent.
func (n *Node) Stop() error {
	n.mgr.StopProbing()
	n.srvMu.Lock()
	srv := n.srv
	n.srv = nil
	n.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Counters returns a snapshot of the node's per-RPC counters ("rpc.range",
// "rpc.can_search", …).
func (n *Node) Counters() map[string]float64 {
	return n.counters.Snapshot()
}

// count tallies one RPC; sim.Counters is safe under the node's concurrent
// handlers and lookup workers.
func (n *Node) count(name string) { n.counters.Add(name, 1) }

// Publish post-inserts one item into this node's local store and absorbs it
// into the nearest published cluster per level — core.System.PostInsert
// semantics: the overlay summaries stay stale (Fig 10c). With
// Tuning.StreamPublish the insert instead runs the incremental publish kernel
// and announces the changed records (see stream.go). An item of the wrong
// dimension or with a NaN or ±Inf coordinate is refused.
func (n *Node) Publish(id int, item []float64) error {
	if err := vec.Check(item, n.cfg.Dim, false); err != nil {
		return fmt.Errorf("node: item: %w", err)
	}
	if n.tuning.StreamPublish {
		return n.publishStream(id, item)
	}
	n.mu.Lock()
	n.store.Append(id, item)
	core.AbsorbInsert(n.published, item, n.cfg.Convention)
	n.mu.Unlock()
	// The item store changed: the answers that read it must go, here and at
	// every coordinator holding one, before the publish is acknowledged (see
	// fetchcache.go).
	n.sweepFetchDir([][]float64{item})
	return nil
}

// localRange and localKNN scan this node's own store: the body of the
// fetch_range / fetch_knn handlers and of the coordinator's fetch from itself.
// They hold the read lock, and that is the only lock a scan may hold: the
// first scan to find the store's index missing or outgrown builds it inside
// the call (store.ScanGroups), which concurrent readers tolerate and the
// writers in Publish, excluded by the lock, never pay for.
func (n *Node) localRange(q []float64, eps float64) core.RangeIDs {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return core.LocalRangeIDs(q, eps, n.store)
}

func (n *Node) localKNN(q []float64, k int) []core.ItemDist {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return core.LocalKNN(q, k, n.store)
}

// ItemCount returns the number of locally stored items.
func (n *Node) ItemCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.store.Len()
}

// remoteErr classifies a query error for the wire: the routing-core stall
// sentinels get their detail token attached so clients can count routing
// stalls separately from transport failures; anything else crosses
// unannotated.
func remoteErr(err error) error {
	switch {
	case errors.Is(err, route.ErrLoopLimit):
		return transport.WithDetail(err, route.DetailLoopLimit)
	case errors.Is(err, route.ErrNoNeighbor):
		return transport.WithDetail(err, route.DetailNoNeighbor)
	}
	return err
}

// rpcCounters maps every method handle serves — the node RPCs and the
// membership layer's — to its handler-side counter, named once: a name built
// per request would be allocated per request, since the counter map keeps it.
var rpcCounters = func() map[string]string {
	m := make(map[string]string)
	for _, method := range append([]string{methodRange, methodKNN, methodPublish, methodCanSearch,
		methodFetchRange, methodFetchKNN, methodFetchInval}, membership.Methods...) {
		m[method] = "rpc." + method
	}
	return m
}()

// handle dispatches one RPC. The method name is a peer's bytes: it becomes a
// counter key only once recognised, so junk names cannot grow the counter map.
// Range and k-nn requests go through the answer memo (see answer), which
// hands each its plan when it holds one.
func (n *Node) handle(ctx context.Context, req transport.Request) (transport.Response, error) {
	name, ok := rpcCounters[req.Method]
	if !ok {
		n.count("rpc.unknown")
		return transport.Response{}, fmt.Errorf("node: unknown method %q", req.Method)
	}
	n.count(name)
	switch req.Method {
	case methodRange:
		return n.answer(ctx, 'r', req.Body, func(ctx context.Context, plan any) ([]byte, any, error) {
			r, err := transport.Decode(req.Body, walkRangeReq)
			if err != nil {
				return nil, nil, err
			}
			p, ok := plan.(core.RangePlan)
			if !ok {
				if p, err = n.engine.PlanRange(ctx, n.peer, r.Q, r.Eps, r.Opts); err != nil {
					return nil, nil, remoteErr(err)
				}
				plan = p
			}
			res, ids, err := n.engine.RetrieveRangeIDs(ctx, n.peer, r.Q, r.Eps, p)
			if err != nil {
				return nil, nil, remoteErr(err)
			}
			return transport.Encode(&rangeResp{ids, res}, walkRangeResp), plan, nil
		})

	case methodKNN:
		return n.answer(ctx, 'k', req.Body, func(ctx context.Context, plan any) ([]byte, any, error) {
			r, err := transport.Decode(req.Body, walkKNNReq)
			if err != nil {
				return nil, nil, err
			}
			p, ok := plan.(core.KNNPlan)
			if !ok {
				if p, err = n.engine.PlanKNN(ctx, n.peer, r.Q, r.K, r.Opts); err != nil {
					return nil, nil, remoteErr(err)
				}
				plan = p
			}
			res, err := n.engine.RetrieveKNN(ctx, n.peer, r.Q, p)
			if err != nil {
				return nil, nil, remoteErr(err)
			}
			return transport.Encode(&res, walkKNNResp), plan, nil
		})

	case methodPublish:
		r, err := transport.Decode(req.Body, walkPublishReq)
		if err != nil {
			return transport.Response{}, err
		}
		if err := n.Publish(r.ID, r.Item); err != nil {
			return transport.Response{}, err
		}
		return transport.Response{}, nil

	case methodCanSearch:
		return n.handleSearch(req.Body)

	case methodFetchInval:
		r, err := transport.Decode(req.Body, walkInvalReq)
		if err != nil {
			return transport.Response{}, err
		}
		n.invalidateFetch(r.Holder, r.Items)
		n.count("cache.fetch_inval")
		return transport.Response{}, nil

	case methodFetchRange:
		return serveFetch(n, rangeFetch, req.Body, rangeFetch.local)

	case methodFetchKNN:
		return serveFetch(n, knnFetch, req.Body, knnFetch.local)

	default: // a membership method: rpcCounters holds no other
		body, err := n.mgr.HandleRPC(ctx, req.Method, req.Body)
		if err != nil {
			return transport.Response{}, err
		}
		return transport.Response{Body: body}, nil
	}
}

// maxSearchSpheres bounds the spheres one can_search may carry, so a buggy or
// hostile requester cannot make one RPC assemble views without bound. A query
// sends one per wavelet level, at most log2(Dim)+1 of them.
const maxSearchSpheres = 64

// handleSearch serves one can_search: a view of this node for every sphere of
// the request, in request order. An optional sphere that misses this node's
// zones is skipped — its sender asked on speculation, and no flood claims a
// node its sphere does not touch.
func (n *Node) handleSearch(body []byte) (transport.Response, error) {
	reqs, err := transport.Decode(body, walkSearchReq)
	if err != nil {
		return transport.Response{}, err
	}
	if len(reqs) > maxSearchSpheres {
		return transport.Response{}, fmt.Errorf("node: can_search carries %d spheres, limit %d", len(reqs), maxSearchSpheres)
	}
	answers := make([]searchAnswer, len(reqs))
	for i, r := range reqs {
		if r.Level < 0 || r.Level >= n.mgr.NumLevels() {
			return transport.Response{}, fmt.Errorf("node: no level %d", r.Level)
		}
		// A key of another length would index out of range in the zone and
		// record distance tests below.
		if dim := wavelet.SubspaceDim(r.Level); len(r.Key) != dim {
			return transport.Response{}, fmt.Errorf("node: can_search key of %d coordinates at level %d, want %d", len(r.Key), r.Level, dim)
		}
		if r.Optional && !n.mgr.ZonesIntersect(r.Level, r.Key, r.Radius) {
			answers[i].Skipped = true
		} else {
			answers[i].View = n.localView(r.Level, r.Key, r.Radius)
		}
	}
	return transport.Response{Body: transport.Encode(&answers, walkSearchResp)}, nil
}

// localView answers one can_search hop from this node's own slice: identity,
// zones, neighbor table, and the stored records matching the query sphere in
// storage order (owned first, then replicas) — the same order and match test
// (can.TorusDist(key, center) <= recRadius+radius) as can.Overlay's collect.
func (n *Node) localView(level int, key []float64, radius float64) searchView {
	zones, nbs, owned, replicas, _ := n.mgr.SearchView(level, func(rec can.RecordView) bool {
		return can.TorusDist(rec.Entry.Key, key) <= rec.Entry.Radius+radius
	})
	return searchView{ID: n.peer, Zones: zones, Neighbors: nbs, Owned: owned, Replicas: replicas}
}

// netBackend implements core.Backend with peer-to-peer RPCs: the overlay
// search runs the coordinator-driven CAN lookup of search.go, and the
// retrieval pass goes straight to each scored peer's endpoint (one RPC each,
// like the paper's phase-two contact) unless the answer is already here.
// The engine's own backend belongs to no query; Scope gives each query one
// that sends every lookup message under the query's ctx and shares one probe
// table between its level searches. The retrieval calls take the query's ctx
// as an argument. Methods live in search.go and probe.go.
type netBackend struct {
	n     *Node
	ctx   context.Context
	table *probeTable // nil outside a query
}
