package route

import (
	"reflect"
	"testing"
)

// TestFloodNextBatchStopsAtFrontierBoundary claims a batch on the quadrant
// topology and checks the batching invariants: a batch never includes claims
// from the next frontier while the current one has unanswered visits, and an
// empty batch with no pending claims means the flood is done.
func TestFloodNextBatchStopsAtFrontierBoundary(t *testing.T) {
	views := quadrants()
	// Flood the whole square from node 0: frontier 1 is {1, 2}, frontier 2
	// is {3} (reachable via either, deduplicated).
	f := NewFlood(views[0], []float64{0.5, 0.5}, 1.0)

	steps := f.NextBatch(8)
	if len(steps) != 2 {
		t.Fatalf("first batch claimed %d visits, want 2 (nodes 1 and 2; node 3 is next frontier)", len(steps))
	}
	if steps[0].To != 1 || steps[1].To != 2 {
		t.Fatalf("first batch = %v, want visits to 1 then 2 in frontier order", steps)
	}
	// With claims outstanding, another NextBatch must return nothing rather
	// than advance the frontier.
	if extra := f.NextBatch(8); len(extra) != 0 {
		t.Fatalf("NextBatch with pending claims returned %v, want empty", extra)
	}
	f.Feed(views[1])
	f.Feed(views[2])

	steps = f.NextBatch(8)
	if len(steps) != 1 || steps[0].To != 3 {
		t.Fatalf("second batch = %v, want a single visit to 3", steps)
	}
	f.Skip() // lost in the air; still claimed

	if steps = f.NextBatch(8); len(steps) != 0 {
		t.Fatalf("exhausted flood returned %v, want empty batch", steps)
	}
	if step := f.Next(); step.Kind != StepDone {
		t.Fatalf("Next after exhaustion = %v, want StepDone", step)
	}
}

// TestSearchNextBatchSerialRouting checks that the routing phase yields
// single-step batches (each hop depends on the previous view) and the flood
// phase yields multi-claim batches, and that driving a Search entirely
// through NextBatch reproduces the serial result.
func TestSearchNextBatchSerialRouting(t *testing.T) {
	views := quadrants()
	run := func(drive func(s *Search)) ([]int, int) {
		s := NewSearch(views[0], []float64{0.75, 0.75}, 0.5, 100)
		drive(s)
		seqs := make([]int, 0, len(s.Results()))
		for _, e := range s.Results() {
			seqs = append(seqs, e.Payload.(int))
		}
		return seqs, s.Hops()
	}

	serialSeqs, serialHops := run(func(s *Search) {
		if _, _, err := runSerial(s, sliceSource(views)); err != nil {
			t.Fatalf("runSerial: %v", err)
		}
	})

	batchSeqs, batchHops := run(func(s *Search) {
		sawMulti := false
		for {
			steps, err := s.NextBatch(4)
			if err != nil {
				t.Fatalf("NextBatch: %v", err)
			}
			if len(steps) == 0 {
				break
			}
			if len(steps) > 1 {
				sawMulti = true
			}
			for _, st := range steps {
				if st.Kind == StepRouteHop && len(steps) != 1 {
					t.Fatalf("routing hop appeared in a batch of %d", len(steps))
				}
			}
			for _, st := range steps {
				s.Feed(views[st.To], 1)
			}
		}
		if !sawMulti {
			t.Fatal("flood phase never produced a multi-claim batch")
		}
	})

	if !reflect.DeepEqual(batchSeqs, serialSeqs) || batchHops != serialHops {
		t.Fatalf("batched drive diverges: got %v hops %d, serial %v hops %d",
			batchSeqs, batchHops, serialSeqs, serialHops)
	}
}
