package can

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"hyperm/internal/overlay"
	"hyperm/internal/route"
)

// Differential tests for the α-parallel search driver: route.RunAlpha must
// return byte-identical entries and hops to a serial Next/Feed drive on every
// topology the simulator can reach — the determinism contract the serving
// coordinator relies on when it turns α up.

// runSerial is the serial reference drive, pumped here and not through
// RunAlpha(α=1) so the differential compares Next against NextBatch.
func runSerial(s *route.Search, src route.ViewSource) ([]overlay.Entry, int, error) {
	for {
		step, err := s.Next()
		if err != nil || step.Kind == route.StepDone {
			return s.Results(), s.Hops(), err
		}
		v, err := src.View(step.To)
		if err != nil {
			return nil, s.Hops(), err
		}
		s.Feed(v, 1)
	}
}

// overlayViews adapts a live overlay into a concurrency-safe route.ViewSource
// (liveView is a pure read of overlay state).
type overlayViews struct{ o *Overlay }

func (s overlayViews) View(id int) (route.NodeView, error) {
	return s.o.liveView(s.o.nodes[id]), nil
}

// jitterViews wraps a source with small random per-call delays so concurrent
// batch fetches genuinely complete out of order — the commutativity property
// under test is that completion order cannot leak into the results.
type jitterViews struct {
	src route.ViewSource
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *jitterViews) View(id int) (route.NodeView, error) {
	s.mu.Lock()
	d := time.Duration(s.rng.Intn(200)) * time.Microsecond
	s.mu.Unlock()
	time.Sleep(d)
	return s.src.View(id)
}

// TestRunAlphaMatchesSerial runs many random topologies/queries through the
// serial driver and through RunAlpha at α ∈ {1, 2, 3, 8}, requiring
// byte-identical entries (order included) and identical hop counts. α=1 runs
// NextBatch one claim at a time; α>1 exercises batched frontier claims.
func TestRunAlphaMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o, alive := randomOverlay(t, rng)
		src := overlayViews{o}
		for q := 0; q < 10; q++ {
			from := alive[rng.Intn(len(alive))]
			key := randomKey(rng, o.Dim())
			radius := 0.0
			if rng.Intn(4) > 0 {
				radius = rng.Float64() * 0.6
			}
			mk := func() *route.Search {
				return route.NewSearch(o.liveView(o.nodes[from]), key, radius, o.hopLimit())
			}
			wantEntries, wantHops, err := runSerial(mk(), src)
			if err != nil {
				t.Fatalf("seed %d: serial drive: %v", seed, err)
			}
			for _, alpha := range []int{1, 2, 3, 8} {
				gotEntries, gotHops, err := route.RunAlpha(mk(), src, alpha)
				if err != nil {
					t.Fatalf("seed %d α=%d: RunAlpha: %v", seed, alpha, err)
				}
				if gotHops != wantHops {
					t.Fatalf("seed %d α=%d (from=%d key=%v r=%v): hops = %d, serial %d",
						seed, alpha, from, key, radius, gotHops, wantHops)
				}
				if !reflect.DeepEqual(gotEntries, wantEntries) {
					t.Fatalf("seed %d α=%d (from=%d key=%v r=%v): entries diverge:\n got %v\nwant %v",
						seed, alpha, from, key, radius, gotEntries, wantEntries)
				}
			}
		}
	}
}

// TestRunAlphaCommutesUnderJitter repeats the differential check with a
// view source that answers after random delays, so in-flight batch fetches
// complete in scrambled order. Results must still match the serial walk —
// proving the merge depends only on claim order, never completion order.
func TestRunAlphaCommutesUnderJitter(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o, alive := randomOverlay(t, rng)
		src := overlayViews{o}
		jit := &jitterViews{src: src, rng: rand.New(rand.NewSource(seed * 31))}
		for q := 0; q < 4; q++ {
			from := alive[rng.Intn(len(alive))]
			key := randomKey(rng, o.Dim())
			radius := rng.Float64() * 0.6
			mk := func() *route.Search {
				return route.NewSearch(o.liveView(o.nodes[from]), key, radius, o.hopLimit())
			}
			wantEntries, wantHops, err := runSerial(mk(), src)
			if err != nil {
				t.Fatalf("seed %d: serial drive: %v", seed, err)
			}
			gotEntries, gotHops, err := route.RunAlpha(mk(), jit, 3)
			if err != nil {
				t.Fatalf("seed %d: RunAlpha: %v", seed, err)
			}
			if gotHops != wantHops || !reflect.DeepEqual(gotEntries, wantEntries) {
				t.Fatalf("seed %d (from=%d key=%v r=%v): jittered α=3 diverges from serial:\n got %v (hops %d)\nwant %v (hops %d)",
					seed, from, key, radius, gotEntries, gotHops, wantEntries, wantHops)
			}
		}
	}
}
