package node

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"hyperm/internal/transport"
)

// Coordinator-side fetch-result cache.
//
// A fetch_range / fetch_knn answer is a pure function of the holder's item
// store, which mutates only in Publish. The coordinator therefore memoizes the
// raw response bodies per holder and keeps them coherent with a subscription
// protocol instead of TTLs:
//
//   - Before caching anything from a holder, the coordinator registers with it
//     (fetch_sub). Once the ack is back, every later store mutation at the
//     holder is ordered after the registration.
//   - Publish broadcasts invalidate_fetch to every registered coordinator and
//     only returns once all live subscribers have dropped their entries, so in
//     any serial order of operations a completed publish is visible to every
//     later cached fetch.
//   - A per-holder generation counter closes the publish/fetch race: the
//     coordinator snapshots the generation before issuing a fetch and stores
//     the response only if no invalidation arrived in between.
//   - Any membership event (the per-level churn epochs folded into one
//     signature) clears the whole cache and all subscriptions: a crashed
//     holder lost its registry, and a recycled peer id must not serve another
//     node's answers.
//
// A subscriber whose transport fails is dropped from the holder's registry and
// never notified again — the fail-stop assumption shared with the membership
// layer (a peer that cannot be reached is treated as crashed; if it rejoins,
// the epoch bump clears its cache anyway).

// cliFetchMemoCap bounds the coordinator-side memo; on overflow the cached
// bodies reset while subscriptions (still registered at the holders) survive.
const cliFetchMemoCap = 4096

// cliFetchEntry is one memoized fetch answer: the decoded value handed to the
// engine on hits, plus the raw response body the knn invalidation filter
// decodes (it needs the recorded k-th distance).
type cliFetchEntry struct {
	val  any
	resp []byte
}

// epochSig folds every level's churn epoch into one token so a single compare
// detects "some membership event happened somewhere".
func (n *Node) epochSig() uint64 {
	var sig uint64
	for l := 0; l < n.mgr.NumLevels(); l++ {
		sig = sig*1000003 + n.mgr.Epoch(l)
	}
	return sig
}

// cachedFetch serves one remote fetch RPC through the coordinator-side memo.
// Values are stored decoded (the engine only reads fetch results, so the
// cached slice is shared safely and hits cost one map lookup — no RPC, no
// decode, no allocation). The raw response body is kept alongside for the
// knn invalidation filter, which needs the recorded distances.
// unavailable=true reports a dead or unreachable holder (the backend
// contract: such peers contribute no items and no error, exactly like the
// uncached path).
func (n *Node) cachedFetch(ctx context.Context, peer int, tag byte, method string, body []byte, decode func([]byte) (any, error)) (out any, unavailable bool, err error) {
	sig := n.epochSig()
	var kb [512]byte
	key := fetchMemoKey(kb[:], tag, body)

	n.cliMu.Lock()
	if sig != n.cliEpochSig {
		n.cliFetch, n.cliGen, n.cliSubbed = nil, nil, nil
		n.cliCount = 0
		n.cliEpochSig = sig
	}
	if m := n.cliFetch[peer]; m != nil {
		if e, ok := m[string(key)]; ok { // no-alloc map lookup
			n.cliMu.Unlock()
			n.count("cache.fetch_local_hit")
			return e.val, false, nil
		}
	}
	subbed := n.cliSubbed[peer]
	n.cliMu.Unlock()

	addr, err := n.peerAddr(peer)
	if err != nil {
		return nil, false, err
	}
	if !subbed {
		// Register before fetching: only answers fetched after a registration
		// ack may be cached, otherwise the holder could mutate its store
		// without ever notifying us.
		_, err := n.client.Call(ctx, addr, transport.Request{Method: methodFetchSub, Body: encodePeerReq(n.peer)})
		if errors.Is(err, transport.ErrUnavailable) {
			return nil, true, nil
		}
		if err != nil {
			return nil, false, fmt.Errorf("node: fetch_sub peer %d: %w", peer, err)
		}
		n.cliMu.Lock()
		if n.cliEpochSig == sig {
			if n.cliSubbed == nil {
				n.cliSubbed = make(map[int]bool)
			}
			n.cliSubbed[peer] = true
		}
		n.cliMu.Unlock()
	}

	n.cliMu.Lock()
	g0 := n.cliGen[peer]
	n.cliMu.Unlock()

	r, err := n.client.Call(ctx, addr, transport.Request{Method: method, Body: body})
	if errors.Is(err, transport.ErrUnavailable) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("node: %s peer %d: %w", method, peer, err)
	}
	val, err := decode(r.Body)
	if err != nil {
		return nil, false, err
	}

	n.cliMu.Lock()
	// Store only if no invalidation and no membership event raced the fetch:
	// the response may predate a publish whose invalidation already ran here,
	// and such an answer must not outlive this one query.
	if n.cliEpochSig == sig && n.cliGen[peer] == g0 {
		if n.cliCount >= cliFetchMemoCap {
			n.cliFetch = nil
			n.cliCount = 0
		}
		if n.cliFetch == nil {
			n.cliFetch = make(map[int]map[string]cliFetchEntry)
		}
		m := n.cliFetch[peer]
		if m == nil {
			m = make(map[string]cliFetchEntry)
			n.cliFetch[peer] = m
		}
		m[string(key)] = cliFetchEntry{val: val, resp: r.Body}
		n.cliCount++
	}
	n.cliMu.Unlock()
	return val, false, nil
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
		items, err := decodeFetchKNNResp(resp)
		if err != nil || len(items) < k {
			return true
		}
		return d2 <= items[len(items)-1].Dist2
	}
	return true
}

// dropCoveredFetchEntries deletes every entry of m whose answer the new item
// can change, returning how many were dropped.
func dropCoveredFetchEntries(m map[string][]byte, item []float64) int {
	dropped := 0
	for key, resp := range m {
		if fetchEntryCovered(key, resp, item) {
			delete(m, key)
			dropped++
		}
	}
	return dropped
}

// registerFetchSub records one caching coordinator to notify on Publish.
func (n *Node) registerFetchSub(peer int) {
	n.subsMu.Lock()
	if n.fetchSubs == nil {
		n.fetchSubs = make(map[int]struct{})
	}
	n.fetchSubs[peer] = struct{}{}
	n.subsMu.Unlock()
}

// invalidateFetch handles a holder's notification that a batch of items was
// published there: bump its generation once (so in-flight fetches that may
// predate any item of the publish are not cached) and drop exactly the
// entries whose answer some new item can change. Subscriptions are untouched
// — this node is still registered at the holder.
func (n *Node) invalidateFetch(holder int, items [][]float64) {
	n.cliMu.Lock()
	if n.cliGen == nil {
		n.cliGen = make(map[int]uint64)
	}
	n.cliGen[holder]++
	for key, e := range n.cliFetch[holder] {
		for _, item := range items {
			if fetchEntryCovered(key, e.resp, item) {
				delete(n.cliFetch[holder], key)
				n.cliCount--
				break
			}
		}
	}
	n.cliMu.Unlock()
	n.count("cache.fetch_inval")
}

// broadcastInvalidate synchronously notifies every registered coordinator
// that a batch of items was published into this node's store — one message
// per subscriber regardless of batch size. Subscribers whose transport fails
// are dropped from the registry (fail-stop, see the comment above).
func (n *Node) broadcastInvalidate(items [][]float64) {
	n.subsMu.Lock()
	subs := make([]int, 0, len(n.fetchSubs))
	for id := range n.fetchSubs {
		subs = append(subs, id)
	}
	n.subsMu.Unlock()
	if len(subs) == 0 {
		return
	}

	body := encodeInvalReq(n.peer, items)
	dead := make([]bool, len(subs))
	var wg sync.WaitGroup
	for i, id := range subs {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			addr, err := n.peerAddr(id)
			if err == nil {
				_, err = n.client.Call(context.Background(), addr, transport.Request{Method: methodFetchInval, Body: body})
			}
			if err != nil {
				dead[i] = true
			}
		}(i, id)
	}
	wg.Wait()

	n.subsMu.Lock()
	for i, id := range subs {
		if dead[i] {
			delete(n.fetchSubs, id)
		}
	}
	n.subsMu.Unlock()
}

// ClearCaches drops every warm artifact this node holds — view cache,
// lookup memos, holder- and coordinator-side fetch memos — returning it to
// the cold-start state. The bench harness's cold phase uses it to measure
// first-touch cost on an otherwise warm, quiesced cluster; not intended to
// run concurrently with queries this node is coordinating.
func (n *Node) ClearCaches() {
	if n.cache != nil {
		n.cache.Clear()
	}
	n.fetchMu.Lock()
	n.fetchMemo = nil
	n.fetchGen++
	n.fetchMu.Unlock()
	n.cliMu.Lock()
	n.cliFetch = nil
	n.cliCount = 0
	n.cliMu.Unlock()
}
