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
// store, which mutates only in Publish. Both ends memoize it — the holder its
// encoded response bodies, a caching coordinator the decoded values per holder
// — and the holder's memo doubles as the directory of who was handed which
// answer: each line is key → {resp, sharers}. A publish notifies the sharers
// of the lines it changes and nobody else.
//
// Invariant: whenever coordinator C holds an entry for (holder H, key K), C is
// among the sharers of H's line for K.
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
//     drops exactly the entries the items change (the same predicate).
//   - cliGen for the in-flight window. A notification can overtake the fetch
//     response it concerns, so it bumps the coordinator's per-holder
//     generation, and a response is stored only if the generation it was
//     requested under still stands.
//
// Lost mark. The one way the directory forgets a line it still owes for is
// dropping it wholesale — the fetchMemoCap reset. That sets fetchLost, under
// which the next publish notifies every coordinator ever served with an empty
// item list, read by the receiver as "drop every entry of this holder"; once
// that round is through with no further loss the mark clears and publishes
// are targeted again.
//
// No callback. A holder registers only subscribers it can call back: an id its
// address book cannot resolve (a joiner it has not met, a junk id) is refused
// with detailNoCallback before anything is stored, and the coordinator answers
// that refusal by fetching the plain way and caching nothing. Sharer lists are
// de-duplicated, so the directory is bounded by fetchMemoCap × membership.
//
// A sharer whose notification fails is struck from every line and never
// notified again — the fail-stop assumption shared with the membership layer
// (a peer that cannot be reached is treated as crashed; if it rejoins, the
// epoch move clears its cache anyway). Any membership event (a move of
// Manager.Epoch) clears the coordinator side whole: a crashed holder lost its
// directory, and a recycled peer id must not serve another node's answers.

const (
	// fetchMemoCap bounds the holder's directory; on overflow it resets whole
	// under the lost mark (repeat-heavy workloads refill it in a handful of
	// queries).
	fetchMemoCap = 4096
	// cliFetchMemoCap bounds the coordinator-side memo; on overflow the cached
	// entries reset (the holders go on listing this node, which costs a
	// notification that drops nothing).
	cliFetchMemoCap = 4096
	// detailNoCallback classifies a holder's refusal to register a subscriber
	// it has no address for.
	detailNoCallback = "node/no-callback"
)

// cliFetchEntry is one memoized fetch answer: the decoded value handed to the
// engine on hits, plus the raw response body the knn invalidation filter
// decodes (it needs the recorded k-th distance).
type cliFetchEntry struct {
	val  any
	resp []byte
}

// fetchKey writes the memo key of one fetch — a method tag ('r' or 'k'), then
// the plain request body: the query vector and eps or k as raw bits (tail) —
// into buf when it fits, so a lookup's key lives on the caller's stack.
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
// the memo tag, the method, this node's own scan and the response decoder.
// tail is eps or k as the request carries it, raw bits.
type fetchKind[T any] struct {
	tag    byte
	method string
	local  func(n *Node, q []float64, tail uint64) T
	decode func([]byte) (T, error)
}

var (
	rangeFetch = fetchKind[[]int]{'r', methodFetchRange,
		func(n *Node, q []float64, tail uint64) []int { return n.localRange(q, math.Float64frombits(tail)) },
		func(b []byte) ([]int, error) { return transport.Decode(b, walkFetchRangeResp) }}
	knnFetch = fetchKind[[]core.ItemDist]{'k', methodFetchKNN,
		func(n *Node, q []float64, tail uint64) []core.ItemDist { return n.localKNN(q, int(int64(tail))) },
		func(b []byte) ([]core.ItemDist, error) { return transport.Decode(b, walkFetchKNNResp) }}
)

// fetchMiss is one slot of a retrieval the memo pass left open: the peer's
// rank, its request tail (kept here so the tail func stays off the heap: the
// fan-out closure would capture it), and the holder's generation as the memo
// pass read it.
type fetchMiss struct {
	slot int
	tail uint64
	gen  uint64
}

// fetchAll is the retrieval phase of one query (core.Backend.FetchRange /
// FetchKNN): peers[i] is asked with tail(i), answers come back slot for slot.
//
// With Tuning.CacheViews the first pass runs on the calling goroutine and
// fills every slot whose answer is resident: one load of the membership
// epoch, one cliMu acquisition, one map lookup per peer under a key built once
// on the stack (the peers of a query differ in the tail at most), one counter
// add for all the hits together — no RPC, no request body, no decode, no
// allocation per peer. Values are stored decoded; the engine only reads fetch
// results, so the cached slice is shared safely. What is left — the peers with
// nothing resident, this node's own store scan — fans out with at most
// fetchFanout in flight; with caching off that is every peer.
func fetchAll[T any](ctx context.Context, n *Node, kind fetchKind[T], peers []int, q []float64, tail func(i int) uint64) ([]T, []error) {
	out := make([]T, len(peers))
	var misses []fetchMiss
	var epoch uint64
	if n.tuning.CacheViews {
		var kb [512]byte
		key := fetchKey(kb[:], kind.tag, q, 0)
		epoch = n.mgr.Epoch()
		hits := 0
		n.cliMu.Lock()
		if epoch != n.cliEpoch {
			n.cliFetch, n.cliGen = nil, nil
			n.cliCount = 0
			n.cliEpoch = epoch
		}
		for i, p := range peers {
			m := fetchMiss{slot: i, tail: tail(i)}
			if p != n.peer {
				binary.BigEndian.PutUint64(key[len(key)-8:], m.tail)
				if e, ok := n.cliFetch[p][string(key)]; ok { // no-alloc map lookup
					out[i] = e.val.(T)
					hits++
					continue
				}
				m.gen = n.cliGen[p]
			}
			misses = append(misses, m)
		}
		n.cliMu.Unlock()
		if hits > 0 {
			n.counters.Add("cache.fetch_local_hit", float64(hits))
		}
	} else {
		misses = make([]fetchMiss, len(peers))
		for i := range peers {
			misses[i] = fetchMiss{slot: i, tail: tail(i)}
		}
	}
	if len(misses) == 0 {
		return out, nil
	}
	errs := make([]error, len(peers))
	fanOut(len(misses), n.tuning.fan(fetchFanout), func(j int) {
		m := misses[j]
		out[m.slot], errs[m.slot] = fetchOne(ctx, n, kind, peers[m.slot], q, m.tail, m.gen, epoch)
	})
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
// scored peer's endpoint. A caching coordinator sends the plain request body
// with its id appended, which puts it on the holder's line before the holder
// scans, and memoizes the decoded answer with the raw response beside it for
// the knn invalidation filter. A dead or unreachable peer yields the zero
// answer and no error (see callFetch).
func fetchOne[T any](ctx context.Context, n *Node, kind fetchKind[T], peer int, q []float64, tail, gen, epoch uint64) (val T, err error) {
	if peer == n.peer {
		return kind.local(n, q, tail), nil
	}
	var kb [512]byte
	key := fetchKey(kb[:], kind.tag, q, tail)
	body := make([]byte, len(key)-1, len(key)-1+8)
	copy(body, key[1:])
	var resp []byte
	var unavailable bool
	store := n.tuning.CacheViews
	if store {
		resp, unavailable, err = n.callFetch(ctx, peer, kind.method, appendSubscriber(body, n.peer))
		// The holder cannot reach this node, so it tracks nothing for it: take
		// the answer the plain way and let it live for this one query.
		store = transport.ErrorDetail(err) != detailNoCallback
	}
	if !store {
		resp, unavailable, err = n.callFetch(ctx, peer, kind.method, body)
	}
	if err != nil {
		return val, err
	}
	if !unavailable {
		if val, err = kind.decode(resp); err != nil {
			return val, err
		}
	}
	if unavailable || !store || !n.putFetch(peer, key, val, resp, gen, epoch) {
		// No line at the holder lists this node for what was just read, so no
		// notification will say when it changes: no answer built on it may be
		// memoized.
		n.dropAnswers(peer)
	}
	return val, nil
}

// putFetch memoizes one fetched answer and reports whether it did. It does
// not if an invalidation or a membership event raced the fetch: the response
// may predate a publish whose invalidation already ran here, and such an
// answer must not outlive this one query.
func (n *Node) putFetch(peer int, key []byte, val any, resp []byte, gen, epoch uint64) bool {
	n.cliMu.Lock()
	defer n.cliMu.Unlock()
	if n.cliEpoch != epoch || n.cliGen[peer] != gen {
		return false
	}
	if n.cliCount >= cliFetchMemoCap {
		n.cliFetch = nil
		n.cliCount = 0
	}
	if n.cliFetch == nil {
		n.cliFetch = make(map[int]map[string]cliFetchEntry)
	}
	held := n.cliFetch[peer]
	if held == nil {
		held = make(map[string]cliFetchEntry)
		n.cliFetch[peer] = held
	}
	held[string(key)] = cliFetchEntry{val: val, resp: resp}
	n.cliCount++
	return true
}

// invalidateFetch handles a holder's notification that items were published
// there: bump its generation once (so in-flight fetches that may predate any
// item of the publish are not cached) and drop exactly the entries whose
// answer some new item can change. An empty list is the holder's lost-mark
// fallback — it no longer knows what it handed out — and drops every entry of
// that holder.
func (n *Node) invalidateFetch(holder int, items [][]float64) {
	n.cliMu.Lock()
	if n.cliGen == nil {
		n.cliGen = make(map[int]uint64)
	}
	n.cliGen[holder]++
	if m := n.cliFetch[holder]; len(items) == 0 {
		n.cliCount -= len(m)
		delete(n.cliFetch, holder)
	} else {
		for key, e := range m {
			for _, item := range items {
				if fetchEntryCovered(key, e.resp, item) {
					delete(m, key)
					n.cliCount--
					break
				}
			}
		}
	}
	n.cliMu.Unlock()
	n.dropAnswers(holder)
	n.count("cache.fetch_inval")
}

// keyU64 reads a big-endian uint64 straight out of a memo key, so the
// invalidation filter walks the encoded query without converting the map key
// back to a byte slice or materializing the float vector.
func keyU64(s string, off int) uint64 {
	return uint64(s[off])<<56 | uint64(s[off+1])<<48 | uint64(s[off+2])<<40 |
		uint64(s[off+3])<<32 | uint64(s[off+4])<<24 | uint64(s[off+5])<<16 |
		uint64(s[off+6])<<8 | uint64(s[off+7])
}

// fetchEntryCovered reports whether publishing item at the holder can change
// the memoized answer for one fetch entry — the exact complement of the local
// scan predicates (core.LocalRange / core.LocalKNN):
//
//   - range: the new item joins the answer iff it lies within eps of q;
//     anything outside leaves the response bytes untouched.
//   - knn: the new item enters the top-k iff it ties or beats the current
//     k-th distance (ties resolve by id, so <= is the safe test), or the
//     holder had fewer than k items to give.
//
// The key is tag byte + encoded request (U32 count, count float64s, then
// eps or k); the query distance is accumulated in the same term order as
// vec.Dist2 so the predicate matches the local scan bit for bit. Malformed
// entries report covered, erring on the side of dropping.
func fetchEntryCovered(key string, resp []byte, item []float64) bool {
	if len(key) < 1+4+8 {
		return true
	}
	n := int(uint32(key[1])<<24 | uint32(key[2])<<16 | uint32(key[3])<<8 | uint32(key[4]))
	if n != len(item) || len(key) != 1+4+8*n+8 {
		return true
	}
	var d2 float64
	for i := 0; i < n; i++ {
		d := math.Float64frombits(keyU64(key, 5+8*i)) - item[i]
		d2 += d * d
	}
	tail := keyU64(key, 5+8*n)
	switch key[0] {
	case 'r':
		eps := math.Float64frombits(tail)
		return d2 <= eps*eps
	case 'k':
		k := int(int64(tail))
		items, err := transport.Decode(resp, walkFetchKNNResp)
		if err != nil || len(items) < k || len(items) == 0 { // empty: a peer asked for k <= 0
			return true
		}
		return d2 <= items[len(items)-1].Dist2
	}
	return true
}

// fetchLine is one line of the holder's directory: a memoized response body
// and the coordinators that were handed it. resp is nil while the line is
// pending — registered by a handler that has not finished its scan.
type fetchLine struct {
	resp    []byte
	sharers []int
}

// covered reports whether publishing items can change the line's answer.
func (l *fetchLine) covered(key string, items [][]float64) bool {
	if l.resp == nil && key[0] == 'k' {
		return true // pending k-nn: no k-th distance to decide by yet
	}
	for _, item := range items {
		if fetchEntryCovered(key, l.resp, item) {
			return true
		}
	}
	return false
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
		if !line.covered(key, items) {
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
// kept as its plan and its encoded answer.
//
// A query has the paper's two phases (§4.1, Fig 5), and the memo keeps each
// as long as its inputs stand. The plan — level lookups, scores, Eq 8 radii,
// selected peers, k-nn shares (core.RangePlan, core.KNNPlan) — is a function
// of the overlay entries the lookups return, and those change only through
// membership events, each of which moves Manager.Epoch: a plan built while the
// epoch held is right until it moves. The answer adds the stores of the
// holders the retrieval contacted, this node's own when it contacted itself.
// So an entry's bytes are right until one of three events, and each drops or
// fences them:
//
//   - A notification from a contacted holder. By the directory invariant every
//     change to a line this node read arrives as one, and invalidateFetch drops
//     the bytes of every answer that contacted the holder. Dropping more than
//     the answers that read a changed line is sound (a miss recomputes) and
//     keeps an entry to a list of peer ids instead of references to every line
//     it read.
//   - A publish here: Publish drops the bytes of every answer that contacted
//     this node.
//   - Either of them while an answer is being computed. ansSeq counts them,
//     and so does every fetch whose slot no holder line lists (an unavailable
//     holder, a no-callback refusal, a response the cliGen guard kept out of
//     the fetch memo): nothing will say when that slot changes.
//
// Dropping the bytes keeps the plan, so the next asking resumes at retrieval:
// no lookup, no scoring, no can_search. An epoch change drops both. A plan is
// stored if the epoch still reads, when the answer is done, what it read
// before the plan was built (it only grows, so it held throughout); the bytes
// also need ansSeq unchanged.
//
// The memo is off under StreamPublish, whose record deltas change lookup
// entries without an epoch move.

const (
	// answerMemoCap bounds the answer memo; on overflow it resets whole, like
	// the fetch memos. Its heap is at most this many plans and encoded
	// responses.
	answerMemoCap   = 1024
	ctrAnswerHit    = "cache.answer_hit"
	ctrAnswerMiss   = "cache.answer_miss"
	ctrAnswerResume = "cache.answer_resume"
)

// answerEntry is one memoized request: its plan (a core.RangePlan or
// core.KNNPlan), the peers that plan's retrieval contacts, and the encoded
// response — nil once a notification or a publish here dropped it.
type answerEntry struct {
	plan  any
	peers []int
	resp  []byte
}

// answerRun computes one answer: over plan when the memo holds one for the
// request, else over a plan of its own. It returns the encoded response, the
// plan it retrieved over and that plan's contacted peers.
type answerRun func(plan any) (resp []byte, used any, peers []int, err error)

// answer serves one range or k-nn request — tag 'r' or 'k' and the raw body,
// together the memo key — through the answer memo when the node keeps one. A
// hit returns the stored bytes: no lookup, no scoring, no fetch, no encode. A
// resume runs the retrieval over the stored plan; a miss runs both phases.
func (n *Node) answer(tag byte, body []byte, run answerRun) (transport.Response, error) {
	if !n.memoize {
		resp, _, _, err := run(nil)
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
	e, held := n.answers[string(key)] // no-alloc map lookup
	seq := n.ansSeq
	n.ansMu.Unlock()
	if e.resp != nil {
		n.count(ctrAnswerHit)
		return transport.Response{Body: e.resp}, nil
	}
	n.count(ctrAnswerMiss)
	if held {
		n.count(ctrAnswerResume)
	}
	resp, plan, peers, err := run(e.plan)
	if err != nil {
		return transport.Response{}, err
	}
	n.ansMu.Lock()
	if n.mgr.Epoch() == epoch {
		if len(n.answers) >= answerMemoCap {
			n.answers = nil
		}
		if n.answers == nil {
			n.answers = make(map[string]answerEntry)
		}
		e = answerEntry{plan: plan, peers: peers}
		if n.ansSeq == seq {
			e.resp = resp
		}
		n.answers[string(key)] = e
	}
	n.ansMu.Unlock()
	return transport.Response{Body: resp}, nil
}

// dropAnswers handles an event that may change what peer contributes to an
// answer: every memoized answer that contacted peer loses its bytes and keeps
// its plan, and the ansSeq bump keeps bytes computed across the event out of
// the memo.
func (n *Node) dropAnswers(peer int) {
	if !n.memoize {
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
