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
	// computed before the level fan-out, and returns the backend that query's
	// lookups run through. A backend whose searches contact the same peers at
	// every level (the RPC backend) returns a per-query value that asks each
	// peer about all of them at once; one with nothing to share returns
	// itself. The result must still answer a Search for a sphere it was not
	// told about — a k-nn level that widens past its first radius issues one.
	// ctx is the query's: every message the returned backend's Search sends
	// carries it.
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
	// returns, so no scheduling reaches the answer. Each answer is
	// LocalRangeIDs' form: ascending from an indexed store, row order from a
	// small one (RangeQuery takes either, the ascending case is the cheap
	// one); it may be shared with other callers and is read-only. A dead or
	// unreachable peer yields no items and no error: the contact budget is
	// spent either way. errs is nil, or nil in every slot, when no fetch
	// failed; else errs[i] is what peers[i]'s fetch returned. Every message
	// the call sends carries ctx.
	FetchRange(ctx context.Context, from int, peers []int, q []float64, eps float64) (ids []RangeIDs, errs []error)
	// FetchKNN is the retrieval phase of a k-nn query: peers[i] is asked for
	// its wants[i] locally nearest items with their squared distances
	// (LocalKNN). Slots, dead peers and errs as in FetchRange.
	FetchKNN(ctx context.Context, from int, peers, wants []int, q []float64) (items [][]ItemDist, errs []error)
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

// RangePlan is the scoring phase of one range query (§4.1): what the level
// lookups found, scored and aggregated, and the peers the retrieval phase
// contacts. It is a pure function of the overlay entries the lookups
// returned, so while they stand it can be retrieved over again.
type RangePlan struct {
	// Scores lists candidate peers by descending aggregated relevance.
	Scores []PeerScore
	// Peers is the prefix of Scores the retrieval contacts, in score order.
	Peers []int
	// OverlayHops is the overlay cost of the lookups.
	OverlayHops int
}

// KNNPlan is the scoring phase of one k-nn query (Fig 5 steps 1–6 and the
// per-peer shares of step 7): the Eq 8 radii, the scores, the peers the
// retrieval contacts and how many items each is asked for. Peers is empty
// when no peer scored or the selected scores sum to nothing; the retrieval
// then contacts nobody. Like RangePlan, a pure function of the entries.
type KNNPlan struct {
	Scores      []PeerScore
	EpsPerLevel []float64
	Peers       []int
	Wants       []int
	OverlayHops int
}

// RangeQuery runs the §4.1 protocol against the backend: PlanRange, then
// RetrieveRange. See System.RangeQuery for semantics; the error reports a
// backend failure (impossible in-process, a transport fault or ctx's end when
// serving).
func (e *Engine) RangeQuery(ctx context.Context, from int, q []float64, eps float64, opts RangeOptions) (RangeResult, error) {
	plan, err := e.PlanRange(ctx, from, q, eps, opts)
	if err != nil {
		return RangeResult{OverlayHops: plan.OverlayHops}, err
	}
	return e.RetrieveRange(ctx, from, q, eps, plan)
}

// PlanRange runs the scoring phase of a range query: the level lookups
// through the backend, Eq 1 scoring, aggregation and the MaxPeers cut. It
// refuses a query checkQuery refuses and a negative or NaN eps. On a lookup
// failure the plan holds the hops of the levels before the failing one.
func (e *Engine) PlanRange(ctx context.Context, from int, q []float64, eps float64, opts RangeOptions) (RangePlan, error) {
	if err := e.checkQuery(q); err != nil {
		return RangePlan{}, err
	}
	if !(eps >= 0) {
		return RangePlan{}, fmt.Errorf("core: query radius %v, want >= 0", eps)
	}

	dec := wavelet.Decompose(q, e.cfg.Convention)
	scores := make(map[int][]float64)
	var plan RangePlan

	// The L per-level sphere searches are independent floods, so they run
	// with up to levelFanout in flight; the merge below walks the slots in
	// level order, which keeps hop totals and per-level score lanes
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
			return plan, fmt.Errorf("core: level %d search: %w", l, err)
		}
		qc := dec.Subspace(l)
		m := wavelet.SubspaceDim(l)
		epsL := eps * wavelet.RadiusScale(e.cfg.Convention, e.cfg.Dim, m)
		plan.OverlayHops += outs[l].hops
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

	plan.Scores = sortScores(scores, e.cfg.Aggregation)
	limit := len(plan.Scores)
	if opts.MaxPeers > 0 && opts.MaxPeers < limit {
		limit = opts.MaxPeers
	}
	plan.Peers = scoredPeers(plan.Scores[:limit])
	return plan, nil
}

// RetrieveRange is the retrieval phase of a range query over plan, which
// PlanRange built for the same q and eps: one backend call fetches from every
// selected peer and the slots are read in score order. The result shares the
// plan's Scores. On a fetch failure the serial coordinator stops after the
// failing peer — reproduced here by counting contacts and items only up to
// the first (lowest-ranked) failure.
func (e *Engine) RetrieveRange(ctx context.Context, from int, q []float64, eps float64, plan RangePlan) (RangeResult, error) {
	res, fetched, err := e.retrieveRange(ctx, from, q, eps, plan)
	if err == nil {
		res.Items = mergeIDs(fetched).Items()
	}
	return res, err
}

// RetrieveRangeIDs is RetrieveRange with the answer returned in its dense
// form, the form a serving node sends it in, and Items left nil. On a fetch
// failure the form is empty and Items holds RetrieveRange's partial answer.
func (e *Engine) RetrieveRangeIDs(ctx context.Context, from int, q []float64, eps float64, plan RangePlan) (RangeResult, RangeIDs, error) {
	res, fetched, err := e.retrieveRange(ctx, from, q, eps, plan)
	if err != nil {
		return res, RangeIDs{}, err
	}
	union := mergeIDs(fetched)
	if len(union.Keys) == 0 {
		union = RangeIDsOf(union.List)
	}
	return res, union, nil
}

// retrieveRange fetches plan's answers. On a fetch failure res.Items is the
// partial answer: what the better-ranked peers returned, in score order,
// unsorted — non-nil exactly when any slot holds ids.
func (e *Engine) retrieveRange(ctx context.Context, from int, q []float64, eps float64, plan RangePlan) (RangeResult, []RangeIDs, error) {
	res := RangeResult{Scores: plan.Scores, OverlayHops: plan.OverlayHops}
	fetched, fetchErrs := e.backend.FetchRange(ctx, from, plan.Peers, q, eps)
	for i, err := range fetchErrs {
		if err != nil {
			res.PeersContacted = i + 1
			total := 0
			for _, ids := range fetched {
				total += ids.Len()
			}
			if total > 0 {
				res.Items = make([]int, 0, total)
			}
			for _, ids := range fetched[:i] {
				res.Items = ids.appendItems(res.Items)
			}
			return res, nil, fmt.Errorf("core: fetch from peer %d: %w", plan.Peers[i], err)
		}
	}
	res.PeersContacted = len(plan.Peers)
	return res, fetched, nil
}

// KNNQuery runs the Figure 5 heuristic against the backend: PlanKNN, then
// RetrieveKNN. See System.KNNQuery for semantics.
func (e *Engine) KNNQuery(ctx context.Context, from int, q []float64, k int, opts KNNOptions) (KNNResult, error) {
	plan, err := e.PlanKNN(ctx, from, q, k, opts)
	if err != nil {
		return KNNResult{EpsPerLevel: plan.EpsPerLevel, OverlayHops: plan.OverlayHops}, err
	}
	return e.RetrieveKNN(ctx, from, q, plan)
}

// PlanKNN runs Fig 5 steps 1–6 and sizes step 7's fetches. It refuses a
// query checkQuery refuses and a k below 1. On a lookup failure the plan
// holds the radii and hops of the levels before the failing one.
func (e *Engine) PlanKNN(ctx context.Context, from int, q []float64, k int, opts KNNOptions) (KNNPlan, error) {
	if err := e.checkQuery(q); err != nil {
		return KNNPlan{}, err
	}
	if k < 1 {
		return KNNPlan{}, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	c := opts.C
	if c == 0 {
		c = e.cfg.C
	}

	dec := wavelet.Decompose(q, e.cfg.Convention)
	scores := make(map[int][]float64)
	plan := KNNPlan{EpsPerLevel: make([]float64, e.cfg.Levels)}

	// Steps 1–3: per-level radius estimation and range queries. Each level's
	// geometric widening loop is independent of the others, so the levels run
	// with up to levelFanout in flight and merge in level order (see
	// PlanRange for the determinism argument).
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
			return plan, fmt.Errorf("core: level %d radius estimation: %w", l, err)
		}
		qc := dec.Subspace(l)
		m := wavelet.SubspaceDim(l)
		plan.OverlayHops += outs[l].hops
		plan.EpsPerLevel[l] = outs[l].epsL
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
	plan.Scores = sortScores(scores, e.cfg.Aggregation)
	if len(plan.Scores) == 0 {
		return plan, nil
	}

	// Steps 5–6: choose P — the smallest score-ordered prefix whose summed
	// expected item mass reaches k — and the normalizing sum.
	p := 0
	var sum float64
	for p < len(plan.Scores) && sum < float64(k) {
		sum += plan.Scores[p].Score
		p++
	}
	if opts.MaxPeers > 0 && opts.MaxPeers < p {
		p = opts.MaxPeers
		sum = 0
		for _, ps := range plan.Scores[:p] {
			sum += ps.Score
		}
	}
	if sum <= 0 {
		return plan, nil
	}

	// Step 7's shares: a proportional number of items from each selected peer.
	plan.Peers = scoredPeers(plan.Scores[:p])
	plan.Wants = make([]int, p)
	for i, ps := range plan.Scores[:p] {
		plan.Wants[i] = max(1, int(math.Ceil(c*float64(k)*ps.Score/sum)))
	}
	return plan, nil
}

// RetrieveKNN is Fig 5 steps 7–10 over plan, which PlanKNN built for the same
// q: fetch every selected peer's share in one backend call, merge in score
// order, sort by true distance. A plan with no peers contacts nobody and
// answers no items. The result shares the plan's Scores and EpsPerLevel.
func (e *Engine) RetrieveKNN(ctx context.Context, from int, q []float64, plan KNNPlan) (KNNResult, error) {
	res := KNNResult{Scores: plan.Scores, EpsPerLevel: plan.EpsPerLevel, OverlayHops: plan.OverlayHops}
	if len(plan.Peers) == 0 {
		return res, nil
	}
	fetchedPer, fetchErrs := e.backend.FetchKNN(ctx, from, plan.Peers, plan.Wants, q)
	for i, err := range fetchErrs {
		if err != nil {
			res.PeersContacted = i + 1
			return res, fmt.Errorf("core: fetch from peer %d: %w", plan.Peers[i], err)
		}
	}
	res.PeersContacted = len(plan.Peers)
	var fetched []ItemDist
	for _, items := range fetchedPer {
		fetched = append(fetched, items...)
	}

	// Step 10: sort the merged result by true distance to the query.
	res.Items = sortFetched(fetched)
	return res, nil
}

// checkQuery refuses a query vector of the wrong dimension or with a NaN
// coordinate, whose wavelet keys would be NaN. A coordinate at ±Inf is a
// point far from every item, and is answered.
func (e *Engine) checkQuery(q []float64) error {
	if err := vec.Check(q, e.cfg.Dim, true); err != nil {
		return fmt.Errorf("core: query: %w", err)
	}
	return nil
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
func (b systemBackend) FetchRange(_ context.Context, from int, peers []int, q []float64, eps float64) ([]RangeIDs, []error) {
	ids := make([]RangeIDs, len(peers))
	b.eachStore(peers, func(i int, st *store.Store) { ids[i] = LocalRangeIDs(q, eps, st) })
	return ids, nil
}

func (b systemBackend) FetchKNN(_ context.Context, from int, peers, wants []int, q []float64) ([][]ItemDist, []error) {
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
