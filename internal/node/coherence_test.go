package node

import (
	"go/parser"
	"go/token"
	"math"
	"slices"
	"strconv"
	"testing"
)

// pureKey is the directory key of a range fetch of radius eps about the
// one-coordinate point q; an answer-memo key starts with the same query.
func pureKey(q, eps float64) []byte {
	return fetchKey(nil, 'r', []float64{q}, math.Float64bits(eps))
}

// TestFetchDirPure drives the holder's directory with no cluster. Each row is
// a script of register, fill, sweep and finish calls on an empty directory.
func TestFetchDirPure(t *testing.T) {
	near, far := pureKey(0, 1), pureKey(10, 1)
	hit := [][]float64{{0.5}} // within 1 of near only
	away := [][]float64{{50}} // within 1 of neither
	// full fills d to the cap with lines listing sub: the next new line resets it.
	full := func(d *fetchDir, sub int) {
		for i := 0; len(d.lines) < fetchMemoCap; i++ {
			d.register(pureKey(100+float64(i), 1), sub, 1)
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, d *fetchDir)
	}{
		{"an empty directory has nothing to send", func(t *testing.T, d *fetchDir) {
			if targets, send, round := d.sweep(hit); targets != nil || len(send) != 1 || round != 0 {
				t.Errorf("sweep = %v, %v, %d; want no targets, the items, round 0", targets, send, round)
			}
		}},
		{"register lists a sharer once", func(t *testing.T, d *fetchDir) {
			l := d.register(near, 1, 1)
			if d.register(near, 1, 1) != l || d.register(near, 2, 1) != l || !slices.Equal(l.sharers, []int{1, 2}) || len(d.served) != 2 {
				t.Errorf("sharers %v, served %v; want one line listing [1 2], both served", l.sharers, d.served)
			}
		}},
		{"fill sets a pending bound once, on its own line only", func(t *testing.T, d *fetchDir) {
			l := d.register(near, 1, math.Inf(1))
			if !d.fill(near, l, 4) || !d.fill(near, l, 2) || l.bound != 4 {
				t.Errorf("bound %v after fills of 4 and 2, want 4", l.bound)
			}
			if d.fill(far, l, 3) {
				t.Error("a line filled under another key")
			}
		}},
		{"sweep takes the lines the items change, with their sharers", func(t *testing.T, d *fetchDir) {
			old := d.register(near, 1, 1)
			d.register(near, 2, 1)
			d.register(far, 2, 1)
			targets, send, round := d.sweep(hit)
			slices.Sort(targets)
			if !slices.Equal(targets, []int{1, 2}) || len(send) != 1 || round != 0 {
				t.Errorf("sweep = %v, %v, %d; want [1 2], the items, round 0", targets, send, round)
			}
			if d.lines[string(near)] != nil || d.lines[string(far)] == nil || d.fill(near, old, 1) {
				t.Error("the changed line stayed or the unchanged one went")
			}
		}},
		{"a sharer whose notification failed is struck from every line", func(t *testing.T, d *fetchDir) {
			d.register(near, 1, 1)
			d.register(near, 2, 1)
			d.register(far, 2, 1)
			d.finish([]int{2}, 0)
			if !slices.Equal(d.lines[string(near)].sharers, []int{1}) || len(d.lines[string(far)].sharers) != 0 || len(d.served) != 1 {
				t.Errorf("sharers %v and %v, served %v; want [1], none, {1}", d.lines[string(near)].sharers, d.lines[string(far)].sharers, d.served)
			}
		}},
		{"the cap reset raises the lost mark, and its round clears it", func(t *testing.T, d *fetchDir) {
			full(d, 1)
			d.register(near, 2, 1)
			if len(d.lines) != 1 || !d.lost {
				t.Fatalf("%d lines, lost %v after the reset; want 1, true", len(d.lines), d.lost)
			}
			targets, send, round := d.sweep(away)
			slices.Sort(targets)
			if !slices.Equal(targets, []int{1, 2}) || send != nil || round == 0 {
				t.Errorf("sweep under the mark = %v, %v, %d; want every coordinator served, no items, a round", targets, send, round)
			}
			d.finish(nil, round)
			if targets, _, round := d.sweep(away); d.lost || len(targets) != 0 || round != 0 {
				t.Errorf("after the round: lost %v, next sweep %v round %d; want targeted again", d.lost, targets, round)
			}
		}},
		{"a reset with nobody served raises no mark", func(t *testing.T, d *fetchDir) {
			full(d, 1)
			d.finish([]int{1}, 0)
			d.register(near, 2, 1)
			if len(d.lines) != 1 || d.lost {
				t.Errorf("%d lines, lost %v; want 1, false", len(d.lines), d.lost)
			}
		}},
		{"a second loss during the round keeps the mark", func(t *testing.T, d *fetchDir) {
			full(d, 1)
			d.register(near, 2, 1)
			_, _, round := d.sweep(away)
			full(d, 1)
			d.register(far, 2, 1) // a second reset while the round's notifications are out
			d.finish(nil, round)
			if !d.lost {
				t.Fatal("the round cleared a mark raised after its sweep")
			}
			_, _, round = d.sweep(away)
			if d.finish(nil, round); d.lost {
				t.Error("the round of the second mark did not clear it")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, &fetchDir{}) })
	}
}

// TestAnswerMemoPure drives the coordinator's answer memo with no cluster.
// Each row is a script of get, fly, invalidate and land calls on an empty
// memo; a retrieval's table begins at epoch 0, the memo's.
func TestAnswerMemoPure(t *testing.T) {
	key := pureKey(0, 1)
	hit := [][]float64{{0.5}} // within 1 of the key's query
	slot := func(peer int, bound float64) answerSlot {
		return answerSlot{peer: peer, tail: 1, val: new(int), bound: bound}
	}
	// fetch registers a fetch of s in flight and returns its retrieval's table.
	fetch := func(m *answerMemo, s answerSlot, keep bool) *slotTable {
		t := &slotTable{read: []slotRead{{answerSlot: s, fly: true, keep: keep}}}
		m.fly(t.read)
		return t
	}
	held := func(s answerSlot) *slotTable {
		return &slotTable{held: []answerSlot{s}, read: []slotRead{{answerSlot: s}}}
	}
	resp := []byte{1}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, m *answerMemo)
	}{
		{"get drops every entry when the epoch moves", func(t *testing.T, m *answerMemo) {
			m.entries = map[string]answerEntry{string(key): {resp: resp}}
			if m.get(key, 0).resp == nil {
				t.Error("the entry went at its own epoch")
			}
			if m.get(key, 1).resp != nil || m.entries != nil || m.epoch != 1 {
				t.Error("the entry outlived an epoch move")
			}
		}},
		{"a fetch no invalidation overtook lands, with the bytes", func(t *testing.T, m *answerMemo) {
			s := slot(4, 1)
			m.land(key, fetch(m, s, true), 0, true, "plan", resp)
			if e := m.entries[string(key)]; len(e.slots) != 1 || e.slots[0].val != s.val || e.resp == nil || e.plan != "plan" || len(m.flight) != 0 {
				t.Errorf("entry %+v, %d holders in flight; want the slot, the bytes, the plan, none", e, len(m.flight))
			}
		}},
		{"an invalidation while in flight keeps the fetch out", func(t *testing.T, m *answerMemo) {
			tb := fetch(m, slot(4, 1), true)
			m.invalidate(4, [][]float64{{50}}) // changes no slot, but may postdate the answer
			m.land(key, tb, 0, true, "plan", resp)
			if e := m.entries[string(key)]; len(e.slots) != 0 || e.resp != nil || e.plan != "plan" {
				t.Errorf("entry %+v; want the plan alone", e)
			}
		}},
		{"a fetch nothing reports on is not kept", func(t *testing.T, m *answerMemo) {
			m.land(key, fetch(m, slot(4, 1), false), 0, true, "plan", resp)
			if e := m.entries[string(key)]; len(e.slots) != 0 || e.resp != nil {
				t.Errorf("entry %+v; want no slot, no bytes", e)
			}
		}},
		{"fetches to one holder leave flight one by one", func(t *testing.T, m *answerMemo) {
			a, b := fetch(m, slot(4, 1), true), fetch(m, slot(4, 1), true)
			if m.land(key, a, 0, true, nil, nil); m.flight[4].n != 1 {
				t.Errorf("%d fetches in flight after one of two landed, want 1", m.flight[4].n)
			}
			if m.land(key, b, 0, true, nil, nil); len(m.flight) != 0 {
				t.Error("the holder stayed in flight after both landed")
			}
		}},
		{"a held slot stands only while the entry holds it", func(t *testing.T, m *answerMemo) {
			s, sibling := slot(4, 1), slot(4, 1)
			vals := func(ss []answerSlot) (v []any) {
				for _, s := range ss {
					v = append(v, s.val)
				}
				return v
			}
			for _, tc := range []struct {
				name  string
				now   []answerSlot
				slots []answerSlot
				bytes bool
			}{
				{"still held", []answerSlot{s}, []answerSlot{s}, true},
				{"a sibling's since", []answerSlot{sibling}, []answerSlot{sibling}, false},
				{"dropped since", nil, nil, false},
			} {
				m.entries = map[string]answerEntry{string(key): {slots: tc.now}}
				m.land(key, held(s), 0, true, nil, resp)
				e := m.entries[string(key)]
				if !slices.Equal(vals(e.slots), vals(tc.slots)) || (e.resp != nil) != tc.bytes {
					t.Errorf("%s: %d slots, bytes %v; want %d, %v", tc.name, len(e.slots), e.resp != nil, len(tc.slots), tc.bytes)
				}
			}
		}},
		{"a failed or straddling answer is not stored", func(t *testing.T, m *answerMemo) {
			m.land(key, fetch(m, slot(4, 1), true), 0, false, "plan", resp)
			straddling := fetch(m, slot(4, 1), true)
			m.land(key, straddling, 1, true, "plan", resp)
			if m.entries != nil || len(m.flight) != 0 {
				t.Errorf("%d entries, %d holders in flight; want none, none", len(m.entries), len(m.flight))
			}
		}},
		{"the memo resets at answerMemoCap", func(t *testing.T, m *answerMemo) {
			m.entries = make(map[string]answerEntry)
			for i := 0; i < answerMemoCap; i++ {
				m.entries[string(pureKey(float64(i), 2))] = answerEntry{resp: resp}
			}
			m.land(key, held(slot(4, 1)), 0, true, nil, resp)
			if _, ok := m.entries[string(key)]; len(m.entries) != 1 || !ok {
				t.Errorf("%d entries after a store into a full memo, want the one stored", len(m.entries))
			}
		}},
		{"slots only under StreamPublish", func(t *testing.T, m *answerMemo) {
			m.slotsOnly = true
			m.land(key, fetch(m, slot(4, 1), true), 0, true, "plan", resp)
			if e := m.entries[string(key)]; len(e.slots) != 1 || e.plan != nil || e.resp != nil {
				t.Errorf("entry %+v; want the slot alone", e)
			}
		}},
		{"invalidate drops the slots the items change, and their entries' bytes", func(t *testing.T, m *answerMemo) {
			changed, unchanged, other := slot(9, 1), slot(9, 0.1), slot(4, 1)
			m.entries = map[string]answerEntry{
				string(key):           {slots: []answerSlot{changed, unchanged, other}, resp: resp},
				string(pureKey(0, 2)): {slots: []answerSlot{unchanged, other}, resp: resp},
			}
			m.invalidate(9, hit)
			a, b := m.entries[string(key)], m.entries[string(pureKey(0, 2))]
			if len(a.slots) != 2 || a.slots[0].val != unchanged.val || a.resp != nil || len(b.slots) != 2 || b.resp == nil || len(m.flight) != 0 {
				t.Errorf("entries %+v and %+v, %d holders in flight; want the changed slot and its bytes gone, nothing else", a, b, len(m.flight))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, &answerMemo{}) })
	}
}

// TestFetchDirPureImports fences coherence.go, the file of both coherence
// types: no lock, no ctx, no clock and no network, so that a test can drive
// the protocol without a cluster.
func TestFetchDirPureImports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "coherence.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"sync", "sync/atomic", "context", "time",
		"hyperm/internal/transport", "hyperm/internal/membership", "hyperm/internal/route"}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); slices.Contains(banned, path) {
			t.Errorf("coherence.go imports %s", path)
		}
	}
}
