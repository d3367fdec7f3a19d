package route

import (
	"sync"

	"hyperm/internal/overlay"
)

// Flood expands breadth-first from a root node over every node whose zones
// intersect a sphere — the visit pattern shared by sphere replication
// (insert) and sphere search. Each emitted StepFloodVisit claims one
// neighbor; the driver either Feeds its view (the node joins the next
// frontier) or Skips it (the message was lost in the air — the visit is
// still charged, but the region behind it goes unexplored, exactly the
// radio-loss semantics of the robustness experiments).
type Flood struct {
	key      []float64
	radius   float64
	visited  idSet
	frontier []NodeView
	next     []NodeView
	fi, ni   int
	pending  int
}

// NewFlood starts a flood of the sphere (key, radius) rooted at root. The
// root itself is considered visited and is not re-emitted. The visited set
// starts at room for four times the root's neighborhood, so a typical flood
// grows it at most once or twice.
func NewFlood(root NodeView, key []float64, radius float64) *Flood {
	f := &Flood{
		key:      key,
		radius:   radius,
		visited:  newIDSet(4 * (len(root.Neighbors) + 1)),
		frontier: []NodeView{root},
	}
	f.visited.add(root.ID)
	return f
}

// claimOne claims the next unvisited, sphere-intersecting neighbor of the
// CURRENT frontier in frontier order, without advancing to the next
// frontier. Non-intersecting neighbors are marked visited and passed over,
// exactly as in the serial walk.
func (f *Flood) claimOne() (Step, bool) {
	for f.fi < len(f.frontier) {
		v := &f.frontier[f.fi]
		for f.ni < len(v.Neighbors) {
			nb := v.Neighbors[f.ni]
			f.ni++
			if !f.visited.add(nb.ID) {
				continue
			}
			if !ZonesIntersect(nb.Zones, f.key, f.radius) {
				continue
			}
			return Step{Kind: StepFloodVisit, From: v.ID, To: nb.ID}, true
		}
		f.fi++
		f.ni = 0
	}
	return Step{}, false
}

// Next emits the next flood decision: a StepFloodVisit for the first
// unvisited, sphere-intersecting neighbor in frontier order, or StepDone
// when the flood is exhausted.
func (f *Flood) Next() Step {
	if f.pending != 0 {
		panic("route: Next before Feed/Skip of the pending visit")
	}
	for {
		if step, ok := f.claimOne(); ok {
			f.pending++
			return step
		}
		if len(f.next) == 0 {
			return Step{Kind: StepDone}
		}
		f.advance()
	}
}

// advance makes the next frontier current, reusing the spent frontier's
// buffer for the one after.
func (f *Flood) advance() {
	f.frontier, f.next = f.next, f.frontier[:0]
	f.fi, f.ni = 0, 0
}

// NextBatch claims up to max flood visits at once, for drivers that fetch
// views concurrently (α-parallel lookups). A batch never spans a frontier
// boundary: claims within one frontier are independent of each other's
// feeds (a Feed only extends the NEXT frontier), so claiming them together
// and feeding the answers back in claim order is byte-identical to the
// serial walk — same visited set, same frontier order, same results. An
// empty batch with outstanding claims means "answer them first"; an empty
// batch with none means the flood is exhausted.
func (f *Flood) NextBatch(max int) []Step {
	var steps []Step
	for len(steps) < max {
		if step, ok := f.claimOne(); ok {
			f.pending++
			steps = append(steps, step)
			continue
		}
		if f.pending > 0 {
			break // next frontier is still being fed; stop at the boundary
		}
		if len(f.next) == 0 {
			break // exhausted
		}
		f.advance()
	}
	return steps
}

// Feed delivers a claimed node's view; it joins the next frontier. With a
// batch of claims outstanding, feeds must arrive in claim order to preserve
// the deterministic frontier order.
func (f *Flood) Feed(v NodeView) {
	if f.pending == 0 {
		panic("route: Feed without a pending visit")
	}
	f.pending--
	f.next = append(f.next, v)
}

// Skip abandons one claimed visit: the message was lost, the node is not
// expanded. It stays claimed — the flood never retries a neighbor.
func (f *Flood) Skip() {
	if f.pending == 0 {
		panic("route: Skip without a pending visit")
	}
	f.pending--
}

// Search is the full CAN sphere lookup: greedy-route to the owner of the
// query center, then flood the zones the query sphere intersects, collecting
// every record whose own sphere intersects the query. Records are collected
// from the owner onward (routing-phase views contribute none), owned before
// replicas, deduplicated by overlay sequence number in arrival order — the
// entry order the query engine's score accumulation depends on.
type Search struct {
	router    *Router
	flood     *Flood // nil until the routing phase completes
	key       []float64
	radius    float64
	floodHops int
	seen      idSet
	results   []overlay.Entry
}

// NewSearch starts a sphere search from the start view. hopLimit bounds the
// routing phase (see NewRouter).
func NewSearch(start NodeView, key []float64, radius float64, hopLimit int) *Search {
	return &Search{
		router: NewRouter(start, key, hopLimit),
		key:    key,
		radius: radius,
	}
}

// Next emits the next decision: StepRouteHops until the owner is reached
// (stalls surface the Router sentinels and must be answered with
// ResolveOwner), then StepFloodVisits, then StepDone. The owner's records
// are collected at the phase transition.
func (s *Search) Next() (Step, error) {
	if s.flood == nil {
		if step, routing, err := s.advanceRouting(); routing || err != nil {
			return step, err
		}
	}
	return s.flood.Next(), nil
}

// advanceRouting pumps the routing phase one step. It reports routing=true
// while the owner is still being located (the step is the hop to make, or a
// stall error); once the owner is reached it collects the owner's records,
// roots the flood, and reports routing=false.
func (s *Search) advanceRouting() (step Step, routing bool, err error) {
	step, err = s.router.Next()
	if err != nil || step.Kind == StepRouteHop {
		return step, true, err
	}
	// Routing complete: the owner roots the flood and contributes first.
	owner := s.router.Owner()
	s.collect(owner)
	s.flood = NewFlood(owner, s.key, s.radius)
	return Step{}, false, nil
}

// NextBatch emits up to max decisions at once. The routing phase is
// inherently serial (each hop depends on the previous view), so it yields
// single-step batches; once the flood phase begins, batches carry up to max
// claims from the current frontier (see Flood.NextBatch for why that is
// deterministic). A nil batch means the search is complete. Feeds for a
// batch must be delivered in claim order.
func (s *Search) NextBatch(max int) ([]Step, error) {
	if s.flood == nil {
		step, routing, err := s.advanceRouting()
		if err != nil {
			return nil, err
		}
		if routing {
			return []Step{step}, nil
		}
	}
	return s.flood.NextBatch(max), nil
}

// Feed delivers the view requested by the last step, with the hops the
// contact cost. Flood-phase views are collected and expanded.
func (s *Search) Feed(v NodeView, hops int) {
	if s.flood == nil {
		s.router.Feed(v, hops)
		return
	}
	s.floodHops += hops
	s.collect(v)
	s.flood.Feed(v)
}

// Skip abandons the pending flood visit (message lost), still charging the
// given hops for the transmission.
func (s *Search) Skip(hops int) {
	if s.flood == nil {
		panic("route: Skip during the routing phase")
	}
	s.floodHops += hops
	s.flood.Skip()
}

// ResolveOwner answers a routing stall with an out-of-band owner view (see
// Router.ResolveOwner).
func (s *Search) ResolveOwner(v NodeView, hops int) { s.router.ResolveOwner(v, hops) }

// collect appends v's matching records: owned before replicas, each in
// storage order, skipping sequence numbers already seen and entries whose
// sphere misses the query sphere. Sources that pre-filter records (the
// can_search RPC ships only matches) pass the test trivially — the filter
// is idempotent, so pre-filtering cannot change the result.
func (s *Search) collect(v NodeView) {
	for _, recs := range [2][]RecordView{v.Owned, v.Replicas} {
		for i := range recs {
			if s.seen.claimMatch(&recs[i], s.key, s.radius) {
				s.results = append(s.results, recs[i].Entry)
			}
		}
	}
}

// claimMatch reports whether rec is unseen and its sphere intersects the
// query sphere (key, radius), marking its seq seen if so: a seq counts as
// seen only once it matches.
func (s *idSet) claimMatch(rec *RecordView, key []float64, radius float64) bool {
	if s.has(rec.Seq) || !(TorusDist(rec.Entry.Key, key) <= rec.Entry.Radius+radius) {
		return false
	}
	s.add(rec.Seq)
	return true
}

// Harvest collects, over any number of record lists, every record whose
// sphere intersects a query sphere, deduplicated by sequence number in
// arrival order — Search's collection, keeping whole records instead of
// entries. Recovery scans use it: the simulator's global scan and a live
// node's recovery search.
type Harvest struct {
	key     []float64
	radius  float64
	seen    idSet
	Records []RecordView
}

// NewHarvest starts an empty harvest of the sphere (key, radius).
func NewHarvest(key []float64, radius float64) *Harvest {
	return &Harvest{key: key, radius: radius}
}

// Add harvests recs in order.
func (h *Harvest) Add(recs []RecordView) {
	for i := range recs {
		if h.seen.claimMatch(&recs[i], h.key, h.radius) {
			h.Records = append(h.Records, recs[i])
		}
	}
}

// Results returns the collected entries (valid at any point; complete after
// StepDone).
func (s *Search) Results() []overlay.Entry { return s.results }

// Hops returns the total driver-reported hops across both phases.
func (s *Search) Hops() int { return s.router.Hops() + s.floodHops }

// RunAlpha drives a Search to completion over src, feeding every requested
// view and charging one hop per contact (one contact = one hop = one RPC for
// a serving node), with up to alpha view fetches in flight at once
// (Kademlia's α, applied to the flood frontier; alpha <= 1 is the serial
// drive). With alpha > 1 src.View must be safe for concurrent calls. The
// returned entries, hops, and error are byte-identical for every alpha:
// batches never cross a frontier boundary and views are fed back in claim
// order, so the machine walks the exact serial visit sequence — only the
// fetch latency overlaps. Stalls and source failures abort the lookup with
// the hops spent so far; on a source failure the preceding views of the batch
// are still fed (and charged), matching the serial abort point, and the
// surplus fetches a serial drive would not have issued change no returned
// state. Drivers needing drop injection, retransmission accounting, or
// global-scan stall recovery (the simulator) pump the machine directly
// instead.
func RunAlpha(s *Search, src ViewSource, alpha int) ([]overlay.Entry, int, error) {
	if alpha < 1 {
		alpha = 1
	}
	views := make([]NodeView, alpha)
	errs := make([]error, alpha)
	for {
		steps, err := s.NextBatch(alpha)
		if err != nil {
			return nil, s.Hops(), err
		}
		if len(steps) == 0 {
			return s.Results(), s.Hops(), nil
		}
		if len(steps) == 1 {
			v, err := src.View(steps[0].To)
			if err != nil {
				return nil, s.Hops(), err
			}
			s.Feed(v, 1)
			continue
		}
		var wg sync.WaitGroup
		for i := range steps {
			wg.Add(1)
			go func(i, to int) {
				defer wg.Done()
				views[i], errs[i] = src.View(to)
			}(i, steps[i].To)
		}
		wg.Wait()
		for i := range steps {
			if errs[i] != nil {
				return nil, s.Hops(), errs[i]
			}
			s.Feed(views[i], 1)
		}
	}
}
