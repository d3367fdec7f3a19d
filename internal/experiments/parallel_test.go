package experiments

import (
	"reflect"
	"testing"
)

// Driver determinism: running a sweep with concurrent cells, whose queries
// fan out their level searches and store scans, must produce exactly the rows
// of the serial run — every cell builds its own system from its own seeds,
// Map merges rows in sweep order and a query merges in level and score order.
func TestDriversSerialParallelIdentical(t *testing.T) {
	serialP, parP := tinyParams(), tinyParams()
	serialP.Parallelism, parP.Parallelism = 1, 4
	serialE, parE := tinyEffectiveness(), tinyEffectiveness()
	serialE.Parallelism, parE.Parallelism = 1, 4

	check := func(name string, serial, par func() (any, error)) {
		t.Helper()
		s, err := serial()
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		p, err := par()
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(s, p) {
			t.Errorf("%s: parallel rows diverged from serial\nserial   %+v\nparallel %+v", name, s, p)
		}
	}

	check("Fig8a",
		func() (any, error) { return Fig8a(serialP, []int{2, 10}) },
		func() (any, error) { return Fig8a(parP, []int{2, 10}) })
	check("Fig8c",
		func() (any, error) { return Fig8c(serialP, []int{1, 3}) },
		func() (any, error) { return Fig8c(parP, []int{1, 3}) })
	check("Fig9",
		func() (any, error) { return Fig9(serialP, 3) },
		func() (any, error) { return Fig9(parP, 3) })
	check("Fig10a",
		func() (any, error) { return Fig10a(serialE, []int{1, 3, 0}) },
		func() (any, error) { return Fig10a(parE, []int{1, 3, 0}) })
	check("Fig10b",
		func() (any, error) { return Fig10b(serialE, []int{3, 5}, []float64{1, 2}) },
		func() (any, error) { return Fig10b(parE, []int{3, 5}, []float64{1, 2}) })
	check("Fig10c",
		func() (any, error) { return Fig10c(serialE, []float64{0, 0.3}) },
		func() (any, error) { return Fig10c(parE, []float64{0, 0.3}) })
	check("Fig11",
		func() (any, error) { return Fig11(serialE, 3) },
		func() (any, error) { return Fig11(parE, 3) })
	check("ExtScale",
		func() (any, error) { return ExtScale(serialP, []int{10, 20}) },
		func() (any, error) { return ExtScale(parP, []int{10, 20}) })
	check("ExtChurn",
		func() (any, error) { return ExtChurn(serialE, []float64{0, 0.3}) },
		func() (any, error) { return ExtChurn(parE, []float64{0, 0.3}) })
	check("ExtLoss",
		func() (any, error) { return ExtLoss(serialE, []float64{0, 0.2}) },
		func() (any, error) { return ExtLoss(parE, []float64{0, 0.2}) })
	check("ExtOverlayIndependence",
		func() (any, error) { return ExtOverlayIndependence(serialE) },
		func() (any, error) { return ExtOverlayIndependence(parE) })
}
