package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"hyperm/internal/geometry"
	"hyperm/internal/overlay"
	"hyperm/internal/parallel"
	"hyperm/internal/store"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// ItemDist pairs a fetched item id with its squared distance to the query,
// computed on the peer that stores the item. Carrying the distance with the
// id lets the query coordinator produce the final distance-sorted answer
// without a global id→vector lookup — the property that makes the same
// engine code serve both the in-process simulation and a real cluster of
// nodes.
type ItemDist struct {
	ID    int
	Dist2 float64
}

// Backend is the data plane a query Engine drives: the per-level overlay
// search of the scoring phase and the one retrieval call that fetches from
// every selected peer. core.System implements it directly on its in-memory
// structures; internal/node implements it with peer-to-peer RPCs over a
// transport. Both must discover the same entries in the same order for the
// engine's answers to be byte-identical — the serving runtime's
// determinism-oracle tests check exactly that.
type Backend interface {
	// Scope announces the first search sphere of every level of one query,
	// computed before the level fan-out, and returns the backend that query
	// runs through. A backend whose searches contact the same peers at every
	// level (the RPC backend) returns a per-query value that asks each peer
	// about all of them at once; one with nothing to share returns itself.
	// The result must still answer a Search for a sphere it was not told
	// about — a k-nn level that widens past its first radius issues one. ctx
	// is the query's: every message the returned backend sends carries it.
	Scope(ctx context.Context, spheres []Sphere) Backend
	// Search returns every published entry whose sphere intersects the query
	// sphere at the given wavelet level, plus the overlay hops spent: one per
	// view fed to the lookup machine, which a backend may obtain with fewer
	// messages than that (see Scope). The entry order must match the
	// overlay's deterministic flood order.
	Search(from, level int, key []float64, radius float64) ([]overlay.Entry, int, error)
	// FetchRange is the whole retrieval phase of a range query: it asks every
	// peer of peers (score order) for the ids of its items within eps of q and
	// returns the answers slot for slot. How many peers it asks at once is the
	// backend's business — the engine reads the slots in order once the call
	// returns, so no scheduling reaches the answer. Each answer is in
	// LocalRange's order: ascending from an indexed store, row order from a
	// small one (RangeQuery takes either, the ascending case is the cheap
	// one); it may be shared with other callers and is read-only. A dead or
	// unreachable peer yields no items and no error: the contact budget is
	// spent either way. errs is nil, or nil in every slot, when no fetch
	// failed; else errs[i] is what peers[i]'s fetch returned.
	FetchRange(from int, peers []int, q []float64, eps float64) (ids [][]int, errs []error)
	// FetchKNN is the retrieval phase of a k-nn query: peers[i] is asked for
	// its wants[i] locally nearest items with their squared distances
	// (LocalKNN). Slots, dead peers and errs as in FetchRange.
	FetchKNN(from int, peers, wants []int, q []float64) (items [][]ItemDist, errs []error)
}

// Sphere is one level's search sphere in overlay key space: the arguments of
// a Backend.Search, named so a query can hand all of its levels to
// Backend.Scope at once.
type Sphere struct {
	Level  int
	Key    []float64
	Radius float64
}

// Engine executes the two-phase query protocol of §4 — per-level scoring via
// Backend.Search, score aggregation, and proportional data fetches via the
// Backend fetch calls — independent of where the data actually lives.
// System's RangeQuery/KNNQuery delegate to an Engine over its in-memory
// backend; a serving node builds an Engine over its transport backend, which
// is how served answers stay byte-identical to the simulation oracle.
type Engine struct {
	cfg     Config
	mappers []keyMapper
	backend Backend

	// levelFanout bounds how many per-level overlay searches run at once.
	// <= 1 means strictly serial, the default of NewEngine. See
	// SetParallelism.
	levelFanout int
}

// NewEngine builds an engine from a (possibly partial) Config, the per-level
// coefficient bounds, and a backend. Only the query-relevant Config fields
// are used (Dim, Levels, Convention, Aggregation, C); Factory and Rng may be
// nil, which is what lets a serving node reconstruct an engine from a
// serialized snapshot.
func NewEngine(cfg Config, bounds []Bounds, b Backend) (*Engine, error) {
	cfg = cfg.withDefaults()
	if !wavelet.IsPow2(cfg.Dim) {
		return nil, fmt.Errorf("core: engine Dim must be a power of two, got %d", cfg.Dim)
	}
	if max := wavelet.NumSubspaces(cfg.Dim); cfg.Levels < 1 || cfg.Levels > max {
		return nil, fmt.Errorf("core: engine Levels must be in [1,%d] for Dim=%d, got %d", max, cfg.Dim, cfg.Levels)
	}
	if len(bounds) != cfg.Levels {
		return nil, fmt.Errorf("core: engine got %d bounds for %d levels", len(bounds), cfg.Levels)
	}
	if b == nil {
		return nil, fmt.Errorf("core: engine backend is required")
	}
	return &Engine{cfg: cfg, mappers: buildMappers(bounds), backend: b}, nil
}

// SetParallelism turns on the pipelined scoring phase: up to levelFanout
// per-level overlay searches in flight at once (<= 1 for serial). The backend
// must be safe for concurrent Search calls at different levels — the RPC
// backend is, and so is the in-process one, whose level-l search touches
// only level l's overlay. Results are byte-identical to the serial
// coordinator: per-level score lanes and hop totals are merged in level order
// after the concurrent calls return, so no scheduling order reaches the
// answer. The retrieval phase is one Backend call either way; its concurrency
// is the backend's own.
func (e *Engine) SetParallelism(levelFanout int) {
	e.levelFanout = levelFanout
}

// eachLevel runs f for every level, concurrently when levelFanout allows; a
// panic in a level resurfaces on the caller's goroutine. f(l) must only touch
// slot l of its outputs.
func (e *Engine) eachLevel(f func(l int)) {
	if e.levelFanout <= 1 || e.cfg.Levels == 1 {
		for l := 0; l < e.cfg.Levels; l++ {
			f(l)
		}
		return
	}
	parallel.ForEach(nil, e.levelFanout, e.cfg.Levels, func(l int) error {
		f(l)
		return nil
	})
}

// RangeQuery runs the §4.1 protocol against the backend. See
// System.RangeQuery for semantics; the error reports a backend failure
// (impossible in-process, a transport fault or ctx's end when serving).
func (e *Engine) RangeQuery(ctx context.Context, from int, q []float64, eps float64, opts RangeOptions) (RangeResult, error) {
	if len(q) != e.cfg.Dim {
		panic(fmt.Sprintf("core: query dim %d, want %d", len(q), e.cfg.Dim))
	}
	if eps < 0 {
		panic("core: negative query radius")
	}

	dec := wavelet.Decompose(q, e.cfg.Convention)
	scores := make(map[int][]float64)
	var res RangeResult

	// Scoring phase: the L per-level sphere searches are independent floods,
	// so they run with up to levelFanout in flight; the merge below walks the
	// slots in level order, which keeps hop totals and per-level score lanes
	// byte-identical to the serial walk regardless of completion order.
	type levelOut struct {
		entries []overlay.Entry
		hops    int
		err     error
	}
	spheres := make([]Sphere, e.cfg.Levels)
	for l := range spheres {
		epsL := eps * wavelet.RadiusScale(e.cfg.Convention, e.cfg.Dim, wavelet.SubspaceDim(l))
		spheres[l] = Sphere{Level: l, Key: e.mappers[l].mapPoint(dec.Subspace(l)), Radius: slacken(e.mappers[l].mapRadius(epsL))}
	}
	b := e.backend.Scope(ctx, spheres)
	outs := make([]levelOut, e.cfg.Levels)
	e.eachLevel(func(l int) {
		entries, hops, err := b.Search(from, l, spheres[l].Key, spheres[l].Radius)
		outs[l] = levelOut{entries: entries, hops: hops, err: err}
	})
	for l := 0; l < e.cfg.Levels; l++ {
		if err := outs[l].err; err != nil {
			return res, fmt.Errorf("core: level %d search: %w", l, err)
		}
		qc := dec.Subspace(l)
		m := wavelet.SubspaceDim(l)
		epsL := eps * wavelet.RadiusScale(e.cfg.Convention, e.cfg.Dim, m)
		res.OverlayHops += outs[l].hops
		for _, en := range outs[l].entries {
			ref := en.Payload.(ClusterRef)
			frac := clusterFraction(m, ref, qc, epsL)
			if frac <= 0 {
				continue
			}
			perLevel, ok := scores[ref.Peer]
			if !ok {
				perLevel = make([]float64, e.cfg.Levels)
				scores[ref.Peer] = perLevel
			}
			perLevel[l] += frac * float64(ref.Items)
		}
	}

	res.Scores = sortScores(scores, e.cfg.Aggregation)
	limit := len(res.Scores)
	if opts.MaxPeers > 0 && opts.MaxPeers < limit {
		limit = opts.MaxPeers
	}
	// Retrieval phase: one backend call fetches from every selected peer and
	// the slots are read in score order. On a fetch failure the serial
	// coordinator stops after the failing peer — reproduced here by counting
	// contacts and items only up to the first (lowest-ranked) failure.
	fetchedIDs, fetchErrs := b.FetchRange(from, scoredPeers(res.Scores[:limit]), q, eps)
	for i, err := range fetchErrs {
		if err != nil {
			// The partial answer is what the better-ranked peers returned,
			// in score order, unsorted.
			res.PeersContacted = i + 1
			total := 0
			for _, ids := range fetchedIDs {
				total += len(ids)
			}
			if total > 0 {
				res.Items = make([]int, 0, total)
			}
			for _, ids := range fetchedIDs[:i] {
				res.Items = append(res.Items, ids...)
			}
			return res, fmt.Errorf("core: fetch from peer %d: %w", res.Scores[i].Peer, err)
		}
	}
	res.PeersContacted = limit
	// Indexed holders answer in ascending id order, so the union is a merge.
	res.Items = mergeIDs(fetchedIDs)
	return res, nil
}

// KNNQuery runs the Figure 5 heuristic against the backend. See
// System.KNNQuery for semantics.
func (e *Engine) KNNQuery(ctx context.Context, from int, q []float64, k int, opts KNNOptions) (KNNResult, error) {
	if len(q) != e.cfg.Dim {
		panic(fmt.Sprintf("core: query dim %d, want %d", len(q), e.cfg.Dim))
	}
	if k < 1 {
		panic("core: k must be >= 1")
	}
	c := opts.C
	if c == 0 {
		c = e.cfg.C
	}

	dec := wavelet.Decompose(q, e.cfg.Convention)
	scores := make(map[int][]float64)
	res := KNNResult{EpsPerLevel: make([]float64, e.cfg.Levels)}

	// Steps 1–3: per-level radius estimation and range queries. Each level's
	// geometric widening loop is independent of the others, so the levels run
	// with up to levelFanout in flight and merge in level order (see
	// RangeQuery for the determinism argument).
	type levelOut struct {
		epsL float64
		refs []ClusterRef
		hops int
		err  error
	}
	spheres := make([]Sphere, e.cfg.Levels)
	for l := range spheres {
		spheres[l] = Sphere{Level: l, Key: e.mappers[l].mapPoint(dec.Subspace(l)), Radius: e.searchRadius(l, e.startRadius(l))}
	}
	b := e.backend.Scope(ctx, spheres)
	outs := make([]levelOut, e.cfg.Levels)
	e.eachLevel(func(l int) {
		epsL, refs, hops, err := e.levelEps(b, from, l, dec.Subspace(l), spheres[l].Key, float64(k))
		outs[l] = levelOut{epsL: epsL, refs: refs, hops: hops, err: err}
	})
	for l := 0; l < e.cfg.Levels; l++ {
		if err := outs[l].err; err != nil {
			return res, fmt.Errorf("core: level %d radius estimation: %w", l, err)
		}
		qc := dec.Subspace(l)
		m := wavelet.SubspaceDim(l)
		res.OverlayHops += outs[l].hops
		res.EpsPerLevel[l] = outs[l].epsL
		for _, ref := range outs[l].refs {
			frac := clusterFraction(m, ref, qc, outs[l].epsL)
			if frac <= 0 {
				continue
			}
			perLevel, ok := scores[ref.Peer]
			if !ok {
				perLevel = make([]float64, e.cfg.Levels)
				scores[ref.Peer] = perLevel
			}
			perLevel[l] += frac * float64(ref.Items)
		}
	}

	// Step 4: merge.
	res.Scores = sortScores(scores, e.cfg.Aggregation)
	if len(res.Scores) == 0 {
		return res, nil
	}

	// Steps 5–6: choose P — the smallest score-ordered prefix whose summed
	// expected item mass reaches k — and the normalizing sum.
	p := 0
	var sum float64
	for p < len(res.Scores) && sum < float64(k) {
		sum += res.Scores[p].Score
		p++
	}
	if opts.MaxPeers > 0 && opts.MaxPeers < p {
		p = opts.MaxPeers
		sum = 0
		for _, ps := range res.Scores[:p] {
			sum += ps.Score
		}
	}
	if sum <= 0 {
		return res, nil
	}

	// Steps 7–9: fetch a proportional share from each selected peer in one
	// backend call, merged in score order.
	wants := make([]int, p)
	for i, ps := range res.Scores[:p] {
		wants[i] = max(1, int(math.Ceil(c*float64(k)*ps.Score/sum)))
	}
	fetchedPer, fetchErrs := b.FetchKNN(from, scoredPeers(res.Scores[:p]), wants, q)
	for i, err := range fetchErrs {
		if err != nil {
			res.PeersContacted = i + 1
			return res, fmt.Errorf("core: fetch from peer %d: %w", res.Scores[i].Peer, err)
		}
	}
	res.PeersContacted = p
	var fetched []ItemDist
	for _, items := range fetchedPer {
		fetched = append(fetched, items...)
	}

	// Step 10: sort the merged result by true distance to the query.
	res.Items = sortFetched(fetched)
	return res, nil
}

// scoredPeers lists the peer ids of a score-ordered prefix, the form the
// Backend fetch calls take it in.
func scoredPeers(scores []PeerScore) []int {
	peers := make([]int, len(scores))
	for i, ps := range scores {
		peers[i] = ps.Peer
	}
	return peers
}

// levelEps discovers the clusters reachable at level l and estimates the
// Eq 8 radius expected to yield k items. Discovery expands the overlay
// search radius geometrically until the expected item mass covers k (or the
// whole key space is swept); the Eq 8 inversion then runs on the discovered
// cluster set, which is a superset of the clusters reachable at the solved
// radius.
// epsScratch holds the per-call working slices of levelEps, pooled because a
// busy coordinator runs the geometric search once per level per query.
type epsScratch struct {
	refs    []ClusterRef
	spheres []geometry.SphereAt
}

var epsScratchPool = sync.Pool{New: func() any { return new(epsScratch) }}

func (e *Engine) levelEps(b Backend, from, l int, qc, key []float64, k float64) (float64, []ClusterRef, int, error) {
	m := wavelet.SubspaceDim(l)
	// Start at startRadius — the pass KNNQuery announced to Backend.Scope —
	// and stop once the search sphere can cover the entire level space.
	r := e.startRadius(l)
	maxR := (e.mappers[l].hi - e.mappers[l].lo) * math.Sqrt(float64(m))
	totalHops := 0
	// Both scratch slices live across the widening iterations (each pass
	// resets them to length zero and refills) and across calls via the pool;
	// only the returned refs copy escapes.
	sc := epsScratchPool.Get().(*epsScratch)
	defer epsScratchPool.Put(sc)
	for {
		entries, hops, err := b.Search(from, l, key, e.searchRadius(l, r))
		if err != nil {
			return 0, nil, totalHops, err
		}
		totalHops += hops
		sc.refs = sc.refs[:0]
		sc.spheres = sc.spheres[:0]
		for _, en := range entries {
			ref := en.Payload.(ClusterRef)
			sc.refs = append(sc.refs, ref)
			sc.spheres = append(sc.spheres, geometry.SphereAt{
				Dist:   vec.Dist(qc, ref.Center),
				Radius: ref.Radius,
				Items:  ref.Items,
			})
		}
		if geometry.ExpectedCount(m, r, sc.spheres) >= k || r >= maxR {
			eps := geometry.SolveEpsForCount(m, k, sc.spheres)
			if eps > r && r < maxR {
				// Solver wants a bigger radius than we searched: widen once
				// more so scoring sees every cluster the radius can touch.
				r = eps
				continue
			}
			return eps, append([]ClusterRef(nil), sc.refs...), totalHops, nil
		}
		r *= 2
	}
}

// startRadius is the first radius of levelEps' widening search at level l, in
// coefficient units: 5% of the level's coefficient span.
func (e *Engine) startRadius(l int) float64 {
	return 0.05 * (e.mappers[l].hi - e.mappers[l].lo)
}

// searchRadius maps a coefficient-space radius at level l to the key-space
// radius handed to Backend.Search.
func (e *Engine) searchRadius(l int, r float64) float64 {
	return slacken(e.mappers[l].mapRadius(r))
}

// sortFetched orders fetched items by ascending true distance to the query
// (ties by ascending id) and returns the ids. Items are globally unique ids;
// duplicates (an id fetched from two peers cannot happen, but replicated
// harness use might) are removed, keeping the first occurrence.
func sortFetched(fetched []ItemDist) []int {
	seen := make(map[int]bool, len(fetched))
	cands := make([]ItemDist, 0, len(fetched))
	for _, it := range fetched {
		if seen[it.ID] {
			continue
		}
		seen[it.ID] = true
		cands = append(cands, it)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Dist2 != cands[j].Dist2 {
			return cands[i].Dist2 < cands[j].Dist2
		}
		return cands[i].ID < cands[j].ID
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.ID
	}
	return out
}

// systemBackend adapts the in-process System to the Backend interface: the
// overlays are searched directly and peers are "contacted" by scanning their
// in-memory stores, up to workers at once. It never returns an error.
type systemBackend struct {
	s       *System
	workers int
}

// Scope is the identity: an in-process search reads the overlay directly, so
// there is nothing for the levels to share.
func (b systemBackend) Scope(context.Context, []Sphere) Backend { return b }

// Search reads and charges level's overlay only, which is what lets the
// engine run the levels of one query at once.
func (b systemBackend) Search(from, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	entries, hops := b.s.overlays[level].SearchSphere(from, key, radius)
	return entries, hops, nil
}

// FetchRange and FetchKNN scan the selected stores (see eachStore). A dead
// peer's contact times out: its slot stays empty and the budget is still
// spent.
func (b systemBackend) FetchRange(from int, peers []int, q []float64, eps float64) ([][]int, []error) {
	ids := make([][]int, len(peers))
	b.eachStore(peers, func(i int, st *store.Store) { ids[i] = LocalRange(q, eps, st) })
	return ids, nil
}

func (b systemBackend) FetchKNN(from int, peers, wants []int, q []float64) ([][]ItemDist, []error) {
	items := make([][]ItemDist, len(peers))
	b.eachStore(peers, func(i int, st *store.Store) { items[i] = LocalKNN(q, wants[i], st) })
	return items, nil
}

// scanFanoutMinWork is the smallest retrieval phase, in stored coordinates
// (rows × Dim over the selected peers), that eachStore fans out. Timed in
// situ on 2 cores, both sides on the same calls: at 16k–32k coordinates the
// fan-out took 1.10× the serial loop, at 32k–64k 0.84×, and from 1M on
// (`disseminate`'s 500-row, 128-d stores) 0.55×.
const scanFanoutMinWork = 1 << 15

// eachStore calls scan(i, store) for every live peer of peers, on up to
// b.workers goroutines once the scans are big enough to pay for them. A peer
// appears at most once in a query's selection, so each scan reads its own
// store and writes its own slot, and the slots do not depend on which scan
// finishes first.
func (b systemBackend) eachStore(peers []int, scan func(i int, st *store.Store)) {
	live := func(i int) error {
		if ps := b.s.peers[peers[i]]; !ps.dead {
			scan(i, ps.store)
		}
		return nil
	}
	if b.workers > 1 && len(peers) > 1 && b.coords(peers) >= scanFanoutMinWork {
		parallel.ForEach(nil, b.workers, len(peers), live)
		return
	}
	for i := range peers {
		live(i)
	}
}

// coords is how many stored coordinates the peers' stores hold.
func (b systemBackend) coords(peers []int) int {
	rows := 0
	for _, p := range peers {
		rows += b.s.peers[p].store.Len()
	}
	return rows * b.s.cfg.Dim
}
