package node

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"hyperm/internal/core"
	"hyperm/internal/transport"
)

// Fetch caching and its coherence: a directory at the holder.
//
// A fetch_range / fetch_knn answer is a pure function of the holder's item
// store, which mutates only in Publish. Both ends keep it — the holder its
// encoded response bodies, a caching coordinator the decoded value as a slot
// of the answer-memo entry whose retrieval read it (see the answer memo below)
// — and the holder's memo doubles as the directory of who was handed which
// answer: each line is key → {resp, sharers}. A publish notifies the sharers
// of the lines it changes and nobody else.
//
// Invariant: whenever an answer entry of coordinator C holds a slot for
// (holder H, key K), C is among the sharers of H's line for K.
//
// It holds, and makes every completed publish visible to every later cached
// fetch in any serial order of operations, because of four orderings:
//
//   - Register before scan. A caching coordinator sends its peer id with the
//     fetch itself, and the handler puts it on the line under fetchMu before it
//     reads the store (a line nobody has filled yet is pending, resp == nil).
//     So a store append either precedes the registration, and the scan sees
//     it, or follows it, and its sweep sees the sharer.
//   - Sweep after append. Publish appends, then takes fetchMu once: every line
//     a new item can change (fetchEntryCovered, the exact complement of the
//     scan predicates; a pending range line is decided from its key, a pending
//     k-nn line has no k-th distance yet and counts as changed) gives up its
//     sharers and is deleted. The line itself is the fill token: a handler
//     fills only the pending line it registered on, so a scan that raced the
//     append cannot enter the memo after the sweep removed its line.
//   - Notify before ack. The collected sharers get one inval_fetch carrying
//     the new items, and Publish returns only once all have answered; each
//     drops exactly the slots the items change (the same predicate).
//   - The in-flight guard. A notification can overtake the fetch response it
//     concerns, so while a fetch to the holder is in flight (ansFlight) it
//     bumps the holder's generation there, and a fetched slot is stored only
//     if the generation it was asked under still stands when its entry is.
//
// Lost mark. The one way the directory forgets a line it still owes for is
// the fetchMemoCap reset. That sets fetchLost, under which the next publish
// notifies every coordinator ever served with an empty item list — "drop every
// slot of this holder" — and the mark clears once that round is through with
// no further loss.
//
// No callback. A holder registers only subscribers it can call back: an id its
// address book cannot resolve (a joiner it has not met, a junk id) is refused
// with detailNoCallback before anything is stored, and the coordinator answers
// that refusal by fetching the plain way and keeping nothing. Sharer lists are
// de-duplicated, so the directory is bounded by fetchMemoCap × membership.
//
// A sharer whose notification fails is struck from every line and never
// notified again — the fail-stop assumption of the membership layer. Any
// membership event (a move of Manager.Epoch) clears the coordinator side
// whole: a crashed holder lost its directory, and a recycled peer id must not
// serve another node's answers.

const (
	// fetchMemoCap bounds the holder's directory; on overflow it resets whole
	// under the lost mark (repeat-heavy workloads refill it in a handful of
	// queries).
	fetchMemoCap = 4096
	// detailNoCallback classifies a holder's refusal to register a subscriber
	// it has no address for.
	detailNoCallback = "node/no-callback"
)

// fetchKey writes the directory key of one fetch — a method tag ('r' or 'k'),
// then the plain request body: the query vector and eps or k as raw bits
// (tail) — into buf when it fits, so the key lives on the caller's stack.
func fetchKey(buf []byte, tag byte, q []float64, tail uint64) []byte {
	key := buf[:0]
	if size := 1 + fetchReqSize(len(q)); size > cap(buf) {
		key = make([]byte, 0, size)
	}
	key = append(key, tag)
	key = binary.BigEndian.AppendUint32(key, uint32(len(q)))
	for _, x := range q {
		key = binary.BigEndian.AppendUint64(key, math.Float64bits(x))
	}
	return binary.BigEndian.AppendUint64(key, tail)
}

// callFetch sends one fetch RPC to peer. unavailable=true reports a dead or
// unreachable holder (the backend contract: such peers contribute no items
// and no error — the answer the simulator oracle gives for a peer that left).
func (n *Node) callFetch(ctx context.Context, peer int, method string, body []byte) (resp []byte, unavailable bool, err error) {
	addr, err := n.peerAddr(peer)
	if err != nil {
		return nil, false, err
	}
	r, err := n.client.Call(ctx, addr, transport.Request{Method: method, Body: body})
	if errors.Is(err, transport.ErrUnavailable) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("node: %s peer %d: %w", method, peer, err)
	}
	return r.Body, false, nil
}

// fetchKind is what tells the two fetch RPCs apart on the coordinator's side:
// the key tag, the method, this node's own scan and the response decoder.
// tail is eps or k as the request carries it, raw bits.
type fetchKind[T any] struct {
	tag    byte
	method string
	local  func(n *Node, q []float64, tail uint64) T
	decode func([]byte) (T, error)
}

var (
	rangeFetch = fetchKind[core.RangeIDs]{'r', methodFetchRange,
		func(n *Node, q []float64, tail uint64) core.RangeIDs {
			return n.localRange(q, math.Float64frombits(tail))
		},
		func(b []byte) (core.RangeIDs, error) { return transport.Decode(b, walkRangeIDs) }}
	knnFetch = fetchKind[[]core.ItemDist]{'k', methodFetchKNN,
		func(n *Node, q []float64, tail uint64) []core.ItemDist { return n.localKNN(q, int(int64(tail))) },
		func(b []byte) ([]core.ItemDist, error) { return transport.Decode(b, walkFetchKNNResp) }}
)

// fetchAll is the retrieval phase of one query (core.Backend.FetchRange /
// FetchKNN): peers[i] is asked with tail(i), answers come back slot for slot.
//
// A request served through the answer memo carries its slot table in ctx. A
// remote peer the table holds a slot of for the same tail is answered from it
// on the calling goroutine: no RPC, no decode, no lock, nothing allocated per
// peer, one counter add for all the hits (values are kept decoded; the engine
// only reads them). The rest — this node's own scan included — fans out with
// at most fetchFanout in flight, the remote misses registered in flight first
// under one ansMu acquisition; every remote peer read goes into the table.
// Without a table every peer is asked the plain way and nothing is kept.
func fetchAll[T any](ctx context.Context, n *Node, kind fetchKind[T], peers []int, q []float64, tail func(i int) uint64) ([]T, []error) {
	out := make([]T, len(peers))
	t, _ := ctx.Value(slotsKey{}).(*slotTable)
	var held []answerSlot
	if t != nil {
		held, t.read = t.held, make([]slotRead, 0, len(peers)) // one call per retrieval (core.Backend)
	}
	var misses []slotRead
	for i, p := range peers {
		r := slotRead{answerSlot: answerSlot{peer: p, tail: tail(i)}, rank: i, fly: t != nil && p != n.peer}
		if s, ok := findSlot(held, p, r.tail); ok && r.fly {
			out[i] = s.val.(T)
			t.read = append(t.read, slotRead{answerSlot: s})
			continue
		}
		misses = append(misses, r)
	}
	if t != nil && len(t.read) > 0 {
		n.counters.Add("cache.fetch_local_hit", float64(len(t.read)))
	}
	if len(misses) == 0 {
		return out, nil
	}
	if t != nil {
		n.ansMu.Lock()
		for j, r := range misses {
			if r.fly {
				f := n.ansFlight[r.peer]
				f.n++
				n.ansFlight[r.peer], misses[j].gen = f, f.gen
			}
		}
		n.ansMu.Unlock()
	}
	errs := make([]error, len(peers))
	fanOut(len(misses), n.tuning.fan(fetchFanout), func(j int) {
		r := &misses[j]
		out[r.rank], r.resp, r.keep, errs[r.rank] = fetchOne(ctx, n, kind, r.peer, q, r.tail, t != nil)
	})
	for _, r := range misses {
		if r.fly {
			r.val = out[r.rank]
			t.read = append(t.read, r)
		}
	}
	return out, errs
}

// fanOut runs f(0) … f(k-1) with at most fan of them in flight, the last one
// on the calling goroutine: a retrieval whose only open slot is the
// coordinator's own scan, or one RPC, starts no goroutine at all.
func fanOut(k, fan int, f func(j int)) {
	if fan > 1 && k > 1 {
		sem := make(chan struct{}, fan-1)
		var wg sync.WaitGroup
		defer wg.Wait()
		for j := 0; j < k-1; j++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(j int) {
				defer wg.Done()
				defer func() { <-sem }()
				f(j)
			}(j)
		}
		f(k - 1)
		return
	}
	for j := 0; j < k; j++ {
		f(j)
	}
}

// fetchOne fills one open slot: this node's own scan, or one fetch RPC to the
// scored peer's endpoint. With subscribe — the request keeps slots — the plain
// request body goes out with this node's id appended, which puts it on the
// holder's line before the holder scans; keep reports that a line lists this
// node for the answer returned, with the raw response beside it for the k-nn
// invalidation filter. A dead or unreachable peer yields the zero answer and
// no error (see callFetch).
func fetchOne[T any](ctx context.Context, n *Node, kind fetchKind[T], peer int, q []float64, tail uint64, subscribe bool) (val T, resp []byte, keep bool, err error) {
	if peer == n.peer {
		return kind.local(n, q, tail), nil, false, nil
	}
	// The plain request body, with room for the subscriber id.
	body := fetchKey(make([]byte, 0, 1+fetchReqSize(len(q))+8), kind.tag, q, tail)[1:]
	var unavailable bool
	if subscribe {
		resp, unavailable, err = n.callFetch(ctx, peer, kind.method, appendSubscriber(body, n.peer))
		// The holder cannot reach this node, so it tracks nothing for it: take
		// the answer the plain way and let it live for this one query.
		keep = transport.ErrorDetail(err) != detailNoCallback
	}
	if !keep {
		resp, unavailable, err = n.callFetch(ctx, peer, kind.method, body)
	}
	if err == nil && !unavailable {
		val, err = kind.decode(resp)
	}
	if err != nil {
		return val, nil, false, err
	}
	if keep = keep && !unavailable; subscribe && !keep {
		// No line at the holder lists this node for what was just read, so no
		// notification will say when it changes: no answer on it may be kept.
		n.dropAnswers(peer)
	}
	return val, resp, keep, nil
}

// invalidateFetch handles a holder's notification that items were published
// there: fetches to it in flight get their generation bumped (the response may
// predate the publish), every answer that contacted it drops its bytes, and
// every slot of it the items can change goes — all of them for an empty list,
// the lost-mark fallback. A holder nothing is in flight to leaves no trace, so
// ids this node never asked grow nothing.
func (n *Node) invalidateFetch(holder int, items [][]float64) {
	n.ansMu.Lock()
	if f, ok := n.ansFlight[holder]; ok {
		f.gen++
		n.ansFlight[holder] = f
	}
	n.ansSeq++
	for key, e := range n.answers {
		if slices.Contains(e.peers, holder) {
			e.resp = nil
		}
		// A stored slot slice is copied, never written.
		gone := func(s answerSlot) bool { return s.peer == holder && fetchEntryCovered(key, s.tail, s.resp, items) }
		if slices.ContainsFunc(e.slots, gone) {
			e.slots = slices.DeleteFunc(slices.Clone(e.slots), gone)
		}
		n.answers[key] = e
	}
	n.ansMu.Unlock()
	n.count("cache.fetch_inval")
}

// keyU64 reads a big-endian uint64 straight out of a key, so the
// invalidation filter walks the encoded query without converting the key back
// to a byte slice or materializing the float vector.
func keyU64(s string, off int) uint64 {
	return uint64(s[off])<<56 | uint64(s[off+1])<<48 | uint64(s[off+2])<<40 |
		uint64(s[off+3])<<32 | uint64(s[off+4])<<24 | uint64(s[off+5])<<16 |
		uint64(s[off+6])<<8 | uint64(s[off+7])
}

// fetchEntryCovered reports whether publishing items at the holder can change
// one fetch answer — the exact complement of the local scan predicates
// (core.LocalRange / core.LocalKNN):
//
//   - range: a new item joins the answer iff it lies within eps of q;
//     anything outside leaves the response bytes untouched.
//   - knn: a new item enters the top-k iff it ties or beats the current k-th
//     distance (ties resolve by id, so <= is the safe test), or the holder had
//     fewer than k items to give.
//
// key starts with the tag byte and the encoded query (U32 count, count
// float64s), as directory and answer-memo keys do; tail is eps or k, raw bits;
// a k-nn resp carries the k-th distance (a pending line has none: changed).
// The distance is summed in vec.Dist2's term order, so the predicate matches
// the scan bit for bit. An empty list (the lost-mark fallback) and malformed
// keys report covered, erring on the side of dropping.
func fetchEntryCovered(key string, tail uint64, resp []byte, items [][]float64) bool {
	if len(items) == 0 || len(key) < 1+4 {
		return true
	}
	n := int(uint32(key[1])<<24 | uint32(key[2])<<16 | uint32(key[3])<<8 | uint32(key[4]))
	if len(key) < 1+4+8*n {
		return true
	}
	var bound float64
	switch key[0] {
	case 'r':
		eps := math.Float64frombits(tail)
		bound = eps * eps
	case 'k':
		held, err := transport.Decode(resp, walkFetchKNNResp)
		if err != nil || len(held) < int(int64(tail)) || len(held) == 0 { // empty: a peer asked for k <= 0
			return true
		}
		bound = held[len(held)-1].Dist2
	default:
		return true
	}
	for _, item := range items {
		if len(item) != n {
			return true
		}
		var d2 float64
		for i, x := range item {
			d := math.Float64frombits(keyU64(key, 5+8*i)) - x
			d2 += d * d
		}
		if d2 <= bound {
			return true
		}
	}
	return false
}

// fetchLine is one line of the holder's directory: a memoized response body
// and the coordinators that were handed it. resp is nil while the line is
// pending — registered by a handler that has not finished its scan.
type fetchLine struct {
	resp    []byte
	sharers []int
}

// serveFetch is the body of the fetch_range / fetch_knn handlers. A request in
// the plain form at a node that keeps no memo is just the scan; any other goes
// through the directory: register on the line (refusing a subscriber this node
// cannot call back), answer from it if filled, else scan and fill.
func (n *Node) serveFetch(tag byte, body []byte, scan func(plain []byte) ([]byte, error)) (transport.Response, error) {
	plain, sub, caching, err := splitFetchReq(body, n.cfg.Dim)
	if err != nil {
		return transport.Response{}, err
	}
	if err := checkFetchTail(tag, binary.BigEndian.Uint64(plain[len(plain)-8:])); err != nil {
		return transport.Response{}, err
	}
	if !caching && !n.tuning.CacheViews {
		resp, err := scan(plain)
		return transport.Response{Body: resp}, err
	}
	if caching {
		if _, err := n.peerAddr(sub); err != nil {
			return transport.Response{}, transport.WithDetail(fmt.Errorf("node: fetch subscriber: %w", err), detailNoCallback)
		}
	}
	var kb [512]byte
	key := append(append(kb[:0], tag), plain...)
	line, resp := n.registerFetch(key, sub, caching)
	if resp != nil {
		n.count("cache.fetch_hit")
		return transport.Response{Body: resp}, nil
	}
	if resp, err = scan(plain); err != nil {
		return transport.Response{}, err
	}
	n.fillFetch(key, line, resp)
	return transport.Response{Body: resp}, nil
}

// checkFetchTail refuses the eps or k a fetch request ends with (tail, raw
// bits) where RangeQuery and KNNQuery would refuse it: a negative or NaN eps,
// which the scan would square into a radius, and a k below 1.
func checkFetchTail(tag byte, tail uint64) error {
	if tag == 'r' {
		if eps := math.Float64frombits(tail); !(eps >= 0) {
			return fmt.Errorf("node: fetch radius %v, want >= 0", eps)
		}
		return nil
	}
	if k := int64(tail); k < 1 {
		return fmt.Errorf("node: fetch k %d, want >= 1", k)
	}
	return nil
}

// registerFetch finds or opens the line of key, adds sub to its sharers when
// the request is a caching one, and returns the line with its response (nil
// while pending). Must run before the caller scans the store.
func (n *Node) registerFetch(key []byte, sub int, caching bool) (*fetchLine, []byte) {
	n.fetchMu.Lock()
	defer n.fetchMu.Unlock()
	line := n.fetchDir[string(key)] // no-alloc map lookup
	if line == nil {
		if len(n.fetchDir) >= fetchMemoCap {
			n.loseFetchDirLocked()
		}
		if n.fetchDir == nil {
			n.fetchDir = make(map[string]*fetchLine)
		}
		line = &fetchLine{}
		n.fetchDir[string(key)] = line
	}
	if caching && !slices.Contains(line.sharers, sub) {
		line.sharers = append(line.sharers, sub)
		if n.fetchServed == nil {
			n.fetchServed = make(map[int]struct{})
		}
		n.fetchServed[sub] = struct{}{}
	}
	return line, line.resp
}

// fillFetch completes a pending line with the response scanned for it, unless
// a sweep or a reset took the line away since registerFetch returned it — the
// scan may predate the publish that did.
func (n *Node) fillFetch(key []byte, line *fetchLine, resp []byte) {
	n.fetchMu.Lock()
	if line.resp == nil && n.fetchDir[string(key)] == line {
		line.resp = resp
	}
	n.fetchMu.Unlock()
}

// loseFetchDirLocked drops the whole directory. If any coordinator was ever
// served, lines it is still owed notifications for may be among the dropped:
// the lost mark makes the next publish tell them all.
func (n *Node) loseFetchDirLocked() {
	n.fetchDir = nil
	if len(n.fetchServed) > 0 {
		n.fetchLost = true
		n.fetchLostGen++
	}
}

// sweepFetchDir is the coherence step of every publish, run after the store
// append and before the acknowledgement: one sweep of the directory deletes
// the lines the new items can change and collects their sharers, who are then
// notified synchronously — one inval_fetch each, whatever the batch size — so
// any later query anywhere sees the items. Under the lost mark the sweep still
// cleans this node's own memo, but the notification goes to every coordinator
// ever served, in the drop-all form.
func (n *Node) sweepFetchDir(items [][]float64) {
	n.fetchMu.Lock()
	if len(n.fetchDir) == 0 && !n.fetchLost {
		n.fetchMu.Unlock()
		return
	}
	var targets []int
	for key, line := range n.fetchDir {
		if !fetchEntryCovered(key, keyU64(key, len(key)-8), line.resp, items) {
			continue
		}
		for _, id := range line.sharers {
			if !slices.Contains(targets, id) {
				targets = append(targets, id)
			}
		}
		delete(n.fetchDir, key)
	}
	lost, lostGen := n.fetchLost, n.fetchLostGen
	if lost {
		items, targets = nil, targets[:0]
		for id := range n.fetchServed {
			targets = append(targets, id)
		}
	}
	n.fetchMu.Unlock()
	if len(targets) == 0 && !lost {
		return
	}

	body := transport.Encode(&invalReq{n.peer, items}, walkInvalReq)
	failed := make([]bool, len(targets))
	var wg sync.WaitGroup
	for i, id := range targets {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			addr, err := n.peerAddr(id)
			if err == nil {
				// Never a caller's ctx (context.WithoutCancel of one, should
				// Publish ever take it): a notification cut short strikes a
				// live sharer from every line below, and it then serves stale
				// answers for as long as it runs.
				_, err = n.client.Call(context.Background(), addr, transport.Request{Method: methodFetchInval, Body: body})
			}
			failed[i] = err != nil
		}(i, id)
	}
	wg.Wait()

	n.fetchMu.Lock()
	for i, id := range targets {
		if !failed[i] {
			continue
		}
		delete(n.fetchServed, id)
		for _, line := range n.fetchDir {
			if at := slices.Index(line.sharers, id); at >= 0 {
				line.sharers = slices.Delete(line.sharers, at, at+1)
			}
		}
	}
	if lost && n.fetchLostGen == lostGen {
		n.fetchLost = false
	}
	n.fetchMu.Unlock()
}

// The answer memo: a coordinator's range or k-nn request, by request body,
// kept as its plan, the slots its retrieval fetched and its encoded answer.
//
// A query has the paper's two phases (§4.1, Fig 5), and the memo keeps each
// as long as its inputs stand. The plan — level lookups, scores, Eq 8 radii,
// selected peers, k-nn shares (core.RangePlan, core.KNNPlan) — is a function
// of the overlay entries the lookups return, which change only through
// membership events, each of which moves Manager.Epoch. A slot — one remote
// holder's answer; the coordinator's own scan is never kept — stands until the
// holder notifies a change its items can make to it. The bytes stand until
// one of three events:
//
//   - A notification from a contacted holder (invalidateFetch): by the
//     directory invariant every change to a line this node read arrives as
//     one. It drops the bytes of every answer that contacted the holder, and
//     of its slots those the items can change.
//   - A publish here: Publish drops the bytes of every answer that contacted
//     this node.
//   - Either of them while an answer is being computed. ansSeq counts them,
//     and so does every fetch whose slot no holder line lists (an unavailable
//     holder, a no-callback refusal): nothing will say when that slot changes.
//
// So the next asking of an answer whose bytes went resumes at retrieval: no
// lookup, no scoring, no can_search, and a fetch only where a slot went. An
// epoch move drops whole entries. A finished answer is stored if the epoch
// still reads what it read before the plan was built (it only grows, so it
// held throughout); its bytes only if ansSeq did too; its slots as landLocked
// says. Under StreamPublish, whose record deltas change lookup entries without
// an epoch move, an entry keeps slots only: every asking plans afresh, and a
// re-plan that picks a holder with the same tail reads its slot.

const (
	// answerMemoCap bounds the answer memo; on overflow it resets whole. Its
	// heap is at most this many plans, slot lists and encoded responses.
	answerMemoCap   = 1024
	ctrAnswerHit    = "cache.answer_hit"
	ctrAnswerMiss   = "cache.answer_miss"
	ctrAnswerResume = "cache.answer_resume"
)

// answerEntry is one memoized request: its plan (a core.RangePlan or
// core.KNNPlan), the peers that plan's retrieval contacts, the remote
// holders' slots — a stored slice is never written, as retrievals read it
// without ansMu — and the encoded response, nil once dropped.
type answerEntry struct {
	plan  any
	peers []int
	slots []answerSlot
	resp  []byte
}

// answerSlot is one remote holder's answer, asked with tail (eps or k, raw
// bits): decoded, and as the raw body the k-nn invalidation filter reads.
type answerSlot struct {
	peer int
	tail uint64
	val  any
	resp []byte
}

func findSlot(slots []answerSlot, peer int, tail uint64) (answerSlot, bool) {
	for _, s := range slots {
		if s.peer == peer && s.tail == tail {
			return s, true
		}
	}
	return answerSlot{}, false
}

// slotsKey is the ctx key under which answer hands a request's slot table to
// its retrieval: the slots its entry held, and what the retrieval read.
type slotsKey struct{}

type slotTable struct {
	held []answerSlot
	read []slotRead
}

// slotRead is one peer a retrieval read, at rank in its peers: served from a
// held slot, or fetched — when fly, registered in ansFlight under gen until
// answer stores the entry; keep says a holder line lists this node for it.
type slotRead struct {
	answerSlot
	rank      int
	fly, keep bool
	gen       uint64
}

// flight counts the fetches in flight to one holder, and the notifications
// from it since the first of them left.
type flight struct {
	n   int
	gen uint64
}

// answer serves one range or k-nn request — tag 'r' or 'k' and the raw body,
// together the memo key — through the answer memo when the node keeps one. A
// hit returns the stored bytes: no lookup, no scoring, no fetch, no encode.
// Otherwise run computes the answer under a ctx carrying the request's slot
// table, over the stored plan if there is one (a resume), and returns the
// encoded response, the plan it retrieved over and that plan's peers.
func (n *Node) answer(ctx context.Context, tag byte, body []byte,
	run func(ctx context.Context, plan any) (resp []byte, used any, peers []int, err error)) (transport.Response, error) {
	if !n.tuning.CacheViews {
		resp, _, _, err := run(ctx, nil)
		return transport.Response{Body: resp}, err
	}
	var kb [512]byte
	key := append(append(kb[:0], tag), body...)
	n.ansMu.Lock()
	// Read under the lock, so the memo's epoch only moves forward.
	epoch := n.mgr.Epoch()
	if epoch != n.ansEpoch {
		n.answers, n.ansEpoch = nil, epoch
	}
	e := n.answers[string(key)] // no-alloc map lookup
	seq := n.ansSeq
	n.ansMu.Unlock()
	if e.resp != nil {
		n.count(ctrAnswerHit)
		return transport.Response{Body: e.resp}, nil
	}
	n.count(ctrAnswerMiss)
	if e.plan != nil {
		n.count(ctrAnswerResume)
	}
	t := &slotTable{held: e.slots}
	resp, plan, peers, err := run(context.WithValue(ctx, slotsKey{}, t), e.plan)
	n.ansMu.Lock()
	slots := n.landLocked(t, n.answers[string(key)].slots)
	if err == nil && n.mgr.Epoch() == epoch {
		if len(n.answers) >= answerMemoCap {
			n.answers = nil
		}
		if n.answers == nil {
			n.answers = make(map[string]answerEntry)
		}
		e = answerEntry{slots: slots}
		if !n.tuning.StreamPublish {
			e.plan, e.peers = plan, peers
			if n.ansSeq == seq {
				e.resp = resp
			}
		}
		n.answers[string(key)] = e
	}
	n.ansMu.Unlock()
	return transport.Response{Body: resp}, err
}

// landLocked ends t's retrieval: every fetch it sent leaves ansFlight, and it
// returns the slots the entry keeps. Of each remote peer read, that is the
// slot cur — the entry as it stands now — holds for the same tail (a held slot
// cur lost was dropped by a notification since), else the fetched answer if a
// line lists this node for it and no notification from its holder came while
// it was in flight.
func (n *Node) landLocked(t *slotTable, cur []answerSlot) []answerSlot {
	slots := make([]answerSlot, 0, len(t.read))
	for _, r := range t.read {
		ok := false
		if r.fly {
			f := n.ansFlight[r.peer]
			ok = r.keep && f.gen == r.gen
			if f.n--; f.n == 0 {
				delete(n.ansFlight, r.peer)
			} else {
				n.ansFlight[r.peer] = f
			}
		}
		if s, held := findSlot(cur, r.peer, r.tail); held {
			slots = append(slots, s)
		} else if ok {
			slots = append(slots, r.answerSlot)
		}
	}
	return slots
}

// dropAnswers handles an event that may change what peer contributes to an
// answer: every memoized answer that contacted peer loses its bytes, and the
// ansSeq bump keeps bytes computed across the event out of the memo.
func (n *Node) dropAnswers(peer int) {
	if !n.tuning.CacheViews {
		return
	}
	n.ansMu.Lock()
	n.ansSeq++
	for key, e := range n.answers {
		if e.resp != nil && slices.Contains(e.peers, peer) {
			e.resp = nil
			n.answers[key] = e
		}
	}
	n.ansMu.Unlock()
}
