package node

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hyperm/internal/core"
	"hyperm/internal/parallel"
	"hyperm/internal/transport"
)

// Fetch caching and its coherence: a directory at the holder.
//
// A fetch_range / fetch_knn answer is a pure function of the holder's item
// store, which mutates only in Publish. A caching coordinator keeps it, decoded,
// as a slot of the answer-memo entry whose retrieval read it (see the answer
// memo below); the holder keeps only the directory of who was handed which
// answer: each line is key → {bound, sharers}, where bound is the squared
// distance a new item must reach to change the answer (eps² for range, the
// k-th distance² for k-nn). A publish notifies the sharers of the lines it
// changes and nobody else.
//
// Invariant: whenever an answer entry of coordinator C holds a slot for
// (holder H, key K), C is among the sharers of H's line for K. The one slot
// no line covers is C's own scan: its holder is C, whose publishes run the
// same invalidation on C's memo directly (sweepFetchDir).
//
// It holds, and makes every completed publish visible to every later cached
// fetch in any serial order of operations, by four rules the types of
// coherence.go keep and three orderings Node keeps around them, with neither
// fetchMu nor ansMu held across an RPC. The types keep:
//
//   - The fill token. fetchDir.fill refuses a line a sweep or a reset took
//     away while its handler scanned, so no answer leaves the holder without
//     a line listing its subscriber.
//   - The lost mark. The fetchMemoCap reset, the one way the directory
//     forgets a line it still owes for, makes the next sweep name every
//     coordinator ever served with no items ("drop every slot of this
//     holder"); finish clears the mark unless a further loss came meanwhile.
//   - The in-flight guard. A notification can overtake the fetch response it
//     concerns, so answerMemo.land keeps a fetched slot only if its holder's
//     generation (taken by fly, bumped by invalidate) still stands.
//   - The own rule. land stores an answer's bytes only if every read it was
//     computed over still stands as read, never beside a sibling's slot.
//
// Node keeps:
//
//   - Register before scan. A caching coordinator sends its peer id with the
//     fetch itself, and the handler registers it before it reads the store
//     (a k-nn line nobody has filled yet is pending, bound +Inf). So a store
//     append either precedes the registration, and the scan sees it, or
//     follows it, and its sweep sees the sharer. A refused fill rescans.
//   - Sweep after append. Publish appends, then sweeps the directory once:
//     every line a new item can change (fetchEntryCovered, the exact
//     complement of the scan predicates; a pending k-nn line counts as
//     changed) gives up its sharers and is deleted.
//   - Notify before ack. The sharers get one inval_fetch carrying the new
//     items, and Publish returns only once all have answered; each drops
//     exactly the slots the items change (the same predicate).
//
// No callback. A holder registers only subscribers it can call back: an id its
// address book cannot resolve (a joiner it has not met, a junk id) is refused
// with detailNoCallback before anything is stored, and the coordinator answers
// that refusal by fetching the plain way and keeping nothing. A plain fetch is
// only the scan. Sharer lists are de-duplicated, so the directory is bounded
// by fetchMemoCap × membership.
//
// Any membership event (a move of Manager.Epoch) clears the coordinator side
// whole: a crashed holder lost its directory, and a recycled peer id must not
// serve another node's answers.

// detailNoCallback classifies a holder's refusal to register a subscriber it
// has no address for.
const detailNoCallback = "node/no-callback"

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

// fetchKind is what tells the two fetch RPCs apart: the key tag, the method,
// a node's own scan, the response codec, and the bound of an answer — the
// squared distance to q a new item must reach to change it
// (fetchEntryCovered). tail is eps or k as the request carries it, raw bits.
// The codec is one closure per kind so that its walker is a static call:
// through a func value, Encode and Decode would put their coder and value on
// the heap.
type fetchKind[T any] struct {
	tag    byte
	method string
	local  func(n *Node, q []float64, tail uint64) T
	decode func([]byte) (T, error)
	encode func(T) []byte
	bound  func(val T, tail uint64) float64
}

var (
	rangeFetch = fetchKind[core.RangeIDs]{'r', methodFetchRange,
		func(n *Node, q []float64, tail uint64) core.RangeIDs {
			return n.localRange(q, math.Float64frombits(tail))
		},
		func(b []byte) (core.RangeIDs, error) { return transport.Decode(b, walkRangeIDs) },
		func(ids core.RangeIDs) []byte { return transport.Encode(&ids, walkRangeIDs) },
		func(_ core.RangeIDs, tail uint64) float64 { eps := math.Float64frombits(tail); return eps * eps }}
	knnFetch = fetchKind[[]core.ItemDist]{'k', methodFetchKNN,
		func(n *Node, q []float64, tail uint64) []core.ItemDist { return n.localKNN(q, int(int64(tail))) },
		func(b []byte) ([]core.ItemDist, error) { return transport.Decode(b, walkFetchKNNResp) },
		func(items []core.ItemDist) []byte { return transport.Encode(&items, walkFetchKNNResp) },
		func(items []core.ItemDist, tail uint64) float64 {
			if k := int(int64(tail)); k >= 1 && len(items) >= k {
				return items[k-1].Dist2
			}
			return math.Inf(1) // fewer than k items: any new one enters
		}}
)

// fetchAll is the retrieval phase of one query (core.Backend.FetchRange /
// FetchKNN): peers[i] is asked with tail(i), answers come back slot for slot.
//
// A request served through the answer memo carries its slot table in ctx. A
// peer the table holds a slot of for the same tail is answered from it on the
// calling goroutine: no RPC, no decode, no lock, nothing allocated per peer,
// one counter add for all the hits (values are kept decoded; the engine only
// reads them). The rest — this node's own scan as any other — fans out with at
// most fetchFanout in flight, registered in flight first under one ansMu
// acquisition; every peer read goes into the table. Without a table every peer
// is asked the plain way and nothing is kept.
func fetchAll[T any](ctx context.Context, n *Node, kind fetchKind[T], peers []int, q []float64, tail func(i int) uint64) ([]T, []error) {
	out := make([]T, len(peers))
	t, _ := ctx.Value(slotsKey{}).(*slotTable)
	var held []answerSlot
	if t != nil {
		held, t.read = t.held, make([]slotRead, 0, len(peers)) // one call per retrieval (core.Backend)
	}
	var misses []slotRead
	for i, p := range peers {
		r := slotRead{answerSlot: answerSlot{peer: p, tail: tail(i)}, rank: i}
		if s, ok := findSlot(held, p, r.tail); ok {
			out[i] = *s.val.(*T)
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
		n.memo.fly(misses)
		n.ansMu.Unlock()
	}
	errs := make([]error, len(peers))
	parallel.Fan(len(misses), n.tuning.fan(fetchFanout), func(j int) {
		r := &misses[j]
		out[r.rank], r.keep, errs[r.rank] = fetchOne(ctx, n, kind, r.peer, q, r.tail, t != nil)
	})
	if t != nil {
		for _, r := range misses {
			val := out[r.rank]
			r.val, r.bound, r.fly = &val, kind.bound(val, r.tail), true
			t.read = append(t.read, r)
		}
	}
	return out, errs
}

// fetchOne fills one open slot: this node's own scan, or one fetch RPC to the
// scored peer's endpoint. With subscribe — the request keeps slots — the plain
// request body goes out with this node's id appended, which puts it on the
// holder's line before the holder scans; keep reports that something will say
// when the answer returned changes: a line listing this node, or this node's
// own publishes for its own scan. A dead or unreachable peer yields the zero
// answer and no error (see callFetch).
func fetchOne[T any](ctx context.Context, n *Node, kind fetchKind[T], peer int, q []float64, tail uint64, subscribe bool) (val T, keep bool, err error) {
	if peer == n.peer {
		return kind.local(n, q, tail), subscribe, nil
	}
	// The plain request body, with room for the subscriber id.
	body := fetchKey(make([]byte, 0, 1+fetchReqSize(len(q))+8), kind.tag, q, tail)[1:]
	var resp []byte
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
		return val, false, err
	}
	return val, keep && !unavailable, nil
}

// invalidateFetch runs answerMemo.invalidate under ansMu.
func (n *Node) invalidateFetch(holder int, items [][]float64) {
	n.ansMu.Lock()
	n.memo.invalidate(holder, items)
	n.ansMu.Unlock()
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
// (core.LocalRange / core.LocalKNN): an item changes it iff its squared
// distance to q is at most the answer's bound (fetchKind.bound).
//
//   - range: the bound is eps², as a new item joins the answer iff it lies
//     within eps of q.
//   - knn: the bound is the k-th distance², as a new item enters the top-k iff
//     it ties or beats it (ties resolve by id, so <= is the safe test); +Inf
//     when the holder had fewer than k items to give, or while a directory
//     line is pending.
//
// key starts with the tag byte and the encoded query (U32 count, count
// float64s), as directory and answer-memo keys do. The distance is summed in
// vec.Dist2's term order, so the predicate matches the scan bit for bit. An
// empty list (the lost-mark fallback) and malformed keys report covered,
// erring on the side of dropping.
func fetchEntryCovered(key string, bound float64, items [][]float64) bool {
	if len(items) == 0 || len(key) < 1+4 {
		return true
	}
	n := int(uint32(key[1])<<24 | uint32(key[2])<<16 | uint32(key[3])<<8 | uint32(key[4]))
	if len(key) < 1+4+8*n {
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

// serveFetch is the body of the fetch_range / fetch_knn handlers, with scan
// the store scan (kind.local but in tests). A plain request is just the scan.
// A subscribing one (refused if this node cannot call the subscriber back)
// registers on its line — a new line opens at the bound of an empty answer:
// eps², or +Inf for a pending k-nn line — scans and fills the line's bound. If
// a publish's sweep took the line away meanwhile, the answer may predate that
// publish and no line lists the subscriber for it: register again, rescan.
func serveFetch[T any](n *Node, kind fetchKind[T], body []byte, scan func(n *Node, q []float64, tail uint64) T) (transport.Response, error) {
	plain, sub, caching, err := splitFetchReq(body, n.cfg.Dim)
	if err != nil {
		return transport.Response{}, err
	}
	tail := binary.BigEndian.Uint64(plain[len(plain)-8:])
	if err := checkFetchTail(kind.tag, tail); err != nil {
		return transport.Response{}, err
	}
	q, err := transport.Decode(plain[:len(plain)-8], func(c *transport.Coder, q *[]float64) { c.Floats(q) })
	if err != nil {
		return transport.Response{}, err
	}
	if !caching {
		return transport.Response{Body: kind.encode(scan(n, q, tail))}, nil
	}
	if _, err := n.peerAddr(sub); err != nil {
		return transport.Response{}, transport.WithDetail(fmt.Errorf("node: fetch subscriber: %w", err), detailNoCallback)
	}
	var kb [512]byte
	key := append(append(kb[:0], kind.tag), plain...)
	open := kind.bound(*new(T), tail)
	for {
		n.fetchMu.Lock()
		line := n.dir.register(key, sub, open)
		n.fetchMu.Unlock()
		val := scan(n, q, tail)
		n.fetchMu.Lock()
		filled := n.dir.fill(key, line, kind.bound(val, tail))
		n.fetchMu.Unlock()
		if filled {
			return transport.Response{Body: kind.encode(val)}, nil
		}
	}
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

// sweepFetchDir is the coherence step of every publish, run after the store
// append and before the acknowledgement, so any later query anywhere sees the
// items: this node's own slots the items can change go first, as a
// notification's would; then each coordinator the directory's sweep names gets
// one inval_fetch, whatever the batch size, and has answered when it returns.
func (n *Node) sweepFetchDir(items [][]float64) {
	n.invalidateFetch(n.peer, items)
	n.fetchMu.Lock()
	targets, items, round := n.dir.sweep(items)
	n.fetchMu.Unlock()
	if len(targets) == 0 && round == 0 {
		return
	}
	body := transport.Encode(&invalReq{n.peer, items}, walkInvalReq)
	failed := make([]bool, len(targets))
	parallel.Fan(len(targets), len(targets), func(i int) {
		addr, err := n.peerAddr(targets[i])
		if err == nil {
			// Never a caller's ctx (context.WithoutCancel of one, should
			// Publish ever take it): a notification cut short strikes a live
			// sharer from every line below, and it then serves stale answers
			// for as long as it runs.
			_, err = n.client.Call(context.Background(), addr, transport.Request{Method: methodFetchInval, Body: body})
		}
		failed[i] = err != nil
	})
	var struck []int
	for i, id := range targets {
		if failed[i] {
			struck = append(struck, id)
		}
	}
	n.fetchMu.Lock()
	n.dir.finish(struck, round)
	n.fetchMu.Unlock()
}

// The answer memo: a coordinator's range or k-nn request, by request body,
// kept as its plan, the slots its retrieval fetched and its encoded answer,
// each as long as its inputs stand. The plan (core.RangePlan, core.KNNPlan) is
// a function of the overlay entries its lookups return, which change only
// through membership events, each of which moves Manager.Epoch; a slot stands
// until items published at its holder can change it (invalidateFetch); the
// bytes are a function of both. So the next asking of an answer whose bytes
// went resumes at retrieval: no lookup, no scoring, no can_search, and a fetch
// only where a slot went. Under StreamPublish, whose record deltas change
// lookup entries without an epoch move, every asking plans afresh, and a
// re-plan that picks a holder with the same tail reads its slot.

const (
	ctrAnswerHit    = "cache.answer_hit"
	ctrAnswerMiss   = "cache.answer_miss"
	ctrAnswerResume = "cache.answer_resume"
)

// slotsKey is the ctx key under which answer hands a request's slot table to
// its retrieval: the slots its entry held, and what the retrieval read.
type slotsKey struct{}

// answer serves one range or k-nn request — tag 'r' or 'k' and the raw body,
// together the memo key — through the answer memo when the node keeps one. A
// hit returns the stored bytes: no lookup, no scoring, no fetch, no encode.
// Otherwise run computes the answer under a ctx carrying the request's slot
// table, over the stored plan if there is one (a resume), and returns the
// encoded response and the plan it retrieved over.
func (n *Node) answer(ctx context.Context, tag byte, body []byte,
	run func(ctx context.Context, plan any) (resp []byte, used any, err error)) (transport.Response, error) {
	if !n.tuning.CacheViews {
		resp, _, err := run(ctx, nil)
		return transport.Response{Body: resp}, err
	}
	var kb [512]byte
	key := append(append(kb[:0], tag), body...)
	n.ansMu.Lock()
	// Read under the lock, so the memo's epoch only moves forward.
	epoch := n.mgr.Epoch()
	e := n.memo.get(key, epoch)
	n.ansMu.Unlock()
	if e.resp != nil {
		n.count(ctrAnswerHit)
		return transport.Response{Body: e.resp}, nil
	}
	n.count(ctrAnswerMiss)
	if e.plan != nil {
		n.count(ctrAnswerResume)
	}
	t := &slotTable{held: e.slots, epoch: epoch}
	resp, plan, err := run(context.WithValue(ctx, slotsKey{}, t), e.plan)
	n.ansMu.Lock()
	n.memo.land(key, t, n.mgr.Epoch(), err == nil, plan, resp)
	n.ansMu.Unlock()
	return transport.Response{Body: resp}, err
}
