package node

import (
	"math"
	"slices"
)

// The coherence state as two plain types, which Node holds under fetchMu and
// ansMu: no lock, RPC or clock here, so a test drives the protocol with no
// cluster. The rules they keep are in the fetchcache.go header.

const (
	// fetchMemoCap bounds the holder's directory; on overflow it resets whole
	// under the lost mark (repeat-heavy workloads refill it in a few queries).
	fetchMemoCap = 4096
	// answerMemoCap bounds the answer memo; on overflow it resets whole. Its
	// heap is at most this many plans, slot lists and encoded responses.
	answerMemoCap = 1024
)

// fetchDir is a holder's directory: a line per fetch request a subscriber
// named, every coordinator ever listed (served), and the lost mark, with
// lostGen counting the losses so a round clears only the mark it served.
type fetchDir struct {
	lines   map[string]*fetchLine
	served  map[int]struct{}
	lost    bool
	lostGen uint64
}

// fetchLine is one line of the directory: the coordinators that were handed
// an answer, and its bound (fetchEntryCovered) — +Inf while a k-nn line is
// pending, its handler not done scanning.
type fetchLine struct {
	bound   float64
	sharers []int
}

// register finds the line of key, or opens it at bound open, and lists sub
// among its sharers. Opening a line in a full directory drops every line
// first: if any coordinator was ever served, lines it is still owed
// notifications for may be among the dropped, so the lost mark goes up.
func (d *fetchDir) register(key []byte, sub int, open float64) *fetchLine {
	line := d.lines[string(key)] // no-alloc map lookup
	if line == nil {
		if len(d.lines) >= fetchMemoCap && len(d.served) > 0 {
			d.lost = true
			d.lostGen++
		}
		if d.lines == nil || len(d.lines) >= fetchMemoCap {
			d.lines = make(map[string]*fetchLine)
		}
		line = &fetchLine{bound: open}
		d.lines[string(key)] = line
	}
	if !slices.Contains(line.sharers, sub) {
		line.sharers = append(line.sharers, sub)
		if d.served == nil {
			d.served = make(map[int]struct{})
		}
		d.served[sub] = struct{}{}
	}
	return line
}

// fill completes a pending line with the bound of the answer scanned for it,
// and reports whether line, as register returned it, is still the key's. It
// is not if a sweep or a reset took it away since: the scan may predate the
// publish that did. A line is filled once; a later scan's bound can only be
// lower, and the sharers handed the earlier answer need the higher one.
func (d *fetchDir) fill(key []byte, line *fetchLine, bound float64) bool {
	if d.lines[string(key)] != line {
		return false
	}
	if math.IsInf(line.bound, 1) {
		line.bound = bound
	}
	return true
}

// sweep deletes every line items can change and returns whom to notify of
// what: those lines' sharers, once each, and items — or under the lost mark
// every coordinator ever served, no items, and round, the token finish clears
// the mark by (0 otherwise). No targets and round 0: nothing to send.
func (d *fetchDir) sweep(items [][]float64) (targets []int, send [][]float64, round uint64) {
	for key, line := range d.lines {
		if !fetchEntryCovered(key, line.bound, items) {
			continue
		}
		for _, id := range line.sharers {
			if !slices.Contains(targets, id) {
				targets = append(targets, id)
			}
		}
		delete(d.lines, key)
	}
	if !d.lost {
		return targets, items, 0
	}
	targets = targets[:0]
	for id := range d.served {
		targets = append(targets, id)
	}
	return targets, nil, d.lostGen
}

// finish ends the notification round a sweep began: each failed sharer is
// struck from every line and never notified again (the fail-stop assumption
// of the membership layer), and the lost mark the round served clears unless
// a further loss has raised it again since.
func (d *fetchDir) finish(failed []int, round uint64) {
	for _, id := range failed {
		delete(d.served, id)
		for _, line := range d.lines {
			if at := slices.Index(line.sharers, id); at >= 0 {
				line.sharers = slices.Delete(line.sharers, at, at+1)
			}
		}
	}
	if round != 0 && round == d.lostGen {
		d.lost = false
	}
}

// answerMemo is a coordinator's answer memo: entries by method tag and request
// body, valid at membership epoch epoch, and the fetches in flight to each
// holder, this node included. Under slotsOnly (StreamPublish) entries keep
// slots only.
type answerMemo struct {
	entries   map[string]answerEntry
	epoch     uint64
	flight    map[int]flight
	slotsOnly bool
}

// answerEntry is one memoized request: its plan (a core.RangePlan or
// core.KNNPlan), its slots — a stored slice is never written, as retrievals
// read it without ansMu — and the encoded response, nil unless every peer the
// plan's retrieval read is a slot.
type answerEntry struct {
	plan  any
	slots []answerSlot
	resp  []byte
}

// answerSlot is one peer's answer, asked with tail (eps or k, raw bits):
// decoded, with its bound (fetchEntryCovered). val is a *T boxed once per
// fetch, so it tells a slot from a later one for the same peer and tail.
type answerSlot struct {
	peer  int
	tail  uint64
	val   any
	bound float64
}

func findSlot(slots []answerSlot, peer int, tail uint64) (answerSlot, bool) {
	for _, s := range slots {
		if s.peer == peer && s.tail == tail {
			return s, true
		}
	}
	return answerSlot{}, false
}

// slotTable is one asking's retrieval: the slots its entry held, what it read,
// and the epoch the asking began at.
type slotTable struct {
	held  []answerSlot
	read  []slotRead
	epoch uint64
}

// slotRead is one peer a retrieval read, at rank in its peers: served from a
// held slot, or fetched (fly) — in flight under gen until the retrieval lands;
// keep says a change to it will be reported (fetchOne).
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

// get returns key's entry at epoch, the membership epoch an asking begins at:
// a reading that moved drops every entry first.
func (m *answerMemo) get(key []byte, epoch uint64) answerEntry {
	if epoch != m.epoch {
		m.entries, m.epoch = nil, epoch
	}
	return m.entries[string(key)] // no-alloc map lookup
}

// fly registers a retrieval's fetches in flight before any leaves, each under
// the generation its holder stands at.
func (m *answerMemo) fly(misses []slotRead) {
	if m.flight == nil {
		m.flight = make(map[int]flight)
	}
	for j, r := range misses {
		f := m.flight[r.peer]
		f.n++
		m.flight[r.peer], misses[j].gen = f, f.gen
	}
}

// invalidate handles items published at holder: fetches to it in flight get
// their generation bumped (the answer may predate the publish), and every
// slot of it the items can change goes, with its entry's bytes — all of them
// for an empty list, the lost-mark fallback. A holder nothing is in flight to
// leaves no trace, so ids this node never asked grow nothing.
func (m *answerMemo) invalidate(holder int, items [][]float64) {
	if f, ok := m.flight[holder]; ok {
		f.gen++
		m.flight[holder] = f
	}
	for key, e := range m.entries {
		gone := func(s answerSlot) bool { return s.peer == holder && fetchEntryCovered(key, s.bound, items) }
		if slices.ContainsFunc(e.slots, gone) {
			// A stored slot slice is copied, never written.
			e.slots, e.resp = slices.DeleteFunc(slices.Clone(e.slots), gone), nil
			m.entries[key] = e
		}
	}
}

// land ends t's retrieval for key: every fetch it sent leaves flight. Of each
// peer read, the entry keeps the slot it holds now for the same tail (a held
// slot it lost was dropped since), else the fetched answer if keep and no
// invalidation for its holder came while it was in flight. A done answer is
// stored if epoch, read now, is still t's (it only grows, so it held), with
// those slots, its plan, and resp if every read still stands as read: a
// fetched answer so kept, a held slot the entry still holds itself. A sibling
// asking may have landed a fresh slot where this retrieval's read went stale;
// the answer computed over the stale read must not be stored beside it.
func (m *answerMemo) land(key []byte, t *slotTable, epoch uint64, done bool, plan any, resp []byte) {
	cur := m.entries[string(key)].slots
	slots, own := make([]answerSlot, 0, len(t.read)), true
	for _, r := range t.read {
		s, held := findSlot(cur, r.peer, r.tail)
		ok := held && s.val == r.val
		if r.fly {
			f := m.flight[r.peer]
			ok = r.keep && f.gen == r.gen
			if f.n--; f.n == 0 {
				delete(m.flight, r.peer)
			} else {
				m.flight[r.peer] = f
			}
		}
		if held {
			slots = append(slots, s)
		} else if ok {
			slots = append(slots, r.answerSlot)
		}
		own = own && ok
	}
	if !done || epoch != t.epoch {
		return
	}
	if m.entries == nil || len(m.entries) >= answerMemoCap {
		m.entries = make(map[string]answerEntry)
	}
	e := answerEntry{slots: slots}
	if !m.slotsOnly {
		e.plan = plan
		if own {
			e.resp = resp
		}
	}
	m.entries[string(key)] = e
}
