package can

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"hyperm/internal/route"
)

// Differential tests for the α-parallel flood driver: route.RunFlood must
// visit the same holders, from the same frontier nodes, and feed or skip each
// exactly as a serial Flood.Next walk does — the contract a streamed publish
// relies on when it applies a record delta at up to α holders at once.

// floodVisit is one visit of a flood drive: the step (its From names the
// frontier node that claimed the holder, so it pins the frontier order the
// feeds built) and whether the holder was fed or skipped.
type floodVisit struct {
	step route.Step
	fed  bool
}

// serialFlood is the reference drive: Flood.Next one visit at a time,
// skipping the holders lost names.
func serialFlood(f *route.Flood, src route.ViewSource, lost func(id int) bool) []floodVisit {
	var out []floodVisit
	for {
		step := f.Next()
		if step.Kind == route.StepDone {
			return out
		}
		if lost(step.To) {
			f.Skip()
			out = append(out, floodVisit{step: step})
			continue
		}
		v, _ := src.View(step.To)
		f.Feed(v)
		out = append(out, floodVisit{step: step, fed: true})
	}
}

// runFlood drives the same flood through route.RunFlood at alpha, each visit
// delayed by up to jitter so the visits of a batch complete out of order, and
// returns its visits sorted by holder (a flood claims each holder once).
func runFlood(t *testing.T, f *route.Flood, src route.ViewSource, lost func(id int) bool, alpha int, jitter *rand.Rand) []floodVisit {
	t.Helper()
	var mu sync.Mutex
	var out []floodVisit
	err := route.RunFlood(f, func(step route.Step) (route.NodeView, bool, error) {
		if jitter != nil {
			mu.Lock()
			d := time.Duration(jitter.Intn(200)) * time.Microsecond
			mu.Unlock()
			time.Sleep(d)
		}
		gone := lost(step.To)
		mu.Lock()
		out = append(out, floodVisit{step: step, fed: !gone})
		mu.Unlock()
		if gone {
			return route.NodeView{}, true, nil
		}
		v, err := src.View(step.To)
		return v, false, err
	}, alpha)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	if step := f.Next(); step.Kind != route.StepDone {
		t.Fatalf("RunFlood returned with the flood not exhausted (next %+v)", step)
	}
	return byHolder(out)
}

func byHolder(vs []floodVisit) []floodVisit {
	out := append([]floodVisit(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i].step.To < out[j].step.To })
	return out
}

// checkRunFlood floods (key, radius) from root serially and through RunFlood
// at each alpha, with no holder lost and with one lost mid-walk (the holder
// the serial walk reaches halfway, unavailable like a peer that died
// mid-flood), and requires identical visits.
func checkRunFlood(t *testing.T, tag string, o *Overlay, root int, key []float64, radius float64, alphas []int, jitter *rand.Rand) {
	t.Helper()
	src := overlayViews{o}
	mk := func() *route.Flood { return route.NewFlood(o.liveView(o.nodes[root]), key, radius) }
	none := func(int) bool { return false }
	all := serialFlood(mk(), src, none)
	lossCases := []func(int) bool{none}
	if len(all) >= 3 {
		victim := all[len(all)/2].step.To
		lossCases = append(lossCases, func(id int) bool { return id == victim })
	}
	for li, lost := range lossCases {
		want := byHolder(serialFlood(mk(), src, lost))
		for _, alpha := range alphas {
			got := runFlood(t, mk(), src, lost, alpha, jitter)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s α=%d loss case %d (root=%d key=%v r=%v): visits diverge from the serial walk:\n got %v\nwant %v",
					tag, alpha, li, root, key, radius, got, want)
			}
		}
	}
}

// TestRunFloodMatchesSerial runs random churned topologies' floods through
// RunFlood at α ∈ {1, 2, 3, 4} against the serial Flood.Next walk.
func TestRunFloodMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o, alive := randomOverlay(t, rng)
		for q := 0; q < 8; q++ {
			root := alive[rng.Intn(len(alive))]
			key := randomKey(rng, o.Dim())
			radius := 0.05 + rng.Float64()*0.55
			checkRunFlood(t, fmt.Sprintf("seed %d", seed), o, root, key, radius, []int{1, 2, 3, 4}, nil)
		}
	}
}

// TestRunFloodCommutesUnderJitter repeats the differential with visits that
// finish after random delays, so the applies of a batch complete in scrambled
// order: the visits must still be the serial walk's, since outcomes are fed
// in claim order, never completion order.
func TestRunFloodCommutesUnderJitter(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o, alive := randomOverlay(t, rng)
		jitter := rand.New(rand.NewSource(seed * 31))
		for q := 0; q < 4; q++ {
			root := alive[rng.Intn(len(alive))]
			key := randomKey(rng, o.Dim())
			radius := 0.05 + rng.Float64()*0.55
			checkRunFlood(t, fmt.Sprintf("seed %d", seed), o, root, key, radius, []int{3, 4}, jitter)
		}
	}
}
