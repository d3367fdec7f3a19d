// Command hyperm-bench regenerates the paper's evaluation figures as text
// tables. Every figure of Lupu et al. (ICDE 2007) has a driver; -run selects
// one (or "all"), -scale selects the workload size.
//
// Usage:
//
//	hyperm-bench -run all                 # every figure, scaled-down
//	hyperm-bench -run fig8b -scale paper  # one figure at publication scale
//	hyperm-bench -list                    # list experiment ids
//
// Paper-scale runs (100 nodes × 1000 items × 512 dims) take minutes; the
// default scale finishes in seconds and preserves every qualitative shape.
// -cpuprofile / -memprofile write pprof profiles of the run for digging into
// the hot paths with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"hyperm/internal/experiments"
)

type experiment struct {
	id, desc string
	run      func(scale string) (string, error)
}

func main() {
	// Profile flushing must happen on every exit path, and os.Exit skips
	// deferred calls — so main delegates to run and exits on its code.
	os.Exit(run())
}

func run() int {
	runID := flag.String("run", "all", "experiment id to run (see -list), or 'all'")
	scale := flag.String("scale", "default", "workload scale: 'default' or 'paper'")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "worker parallelism: 0 = all cores, 1 = serial (results are identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this path")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	exps := registry(*seed, *parallel)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-12s %s\n", e.id, e.desc)
		}
		return 0
	}
	if *scale != "default" && *scale != "paper" {
		fmt.Fprintf(os.Stderr, "unknown scale %q (want 'default' or 'paper')\n", *scale)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	ran := 0
	for _, e := range exps {
		if *runID != "all" && e.id != *runID {
			continue
		}
		ran++
		start := time.Now()
		out, err := e.run(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			return 1
		}
		fmt.Printf("== %s (%s scale, %.1fs) ==\n%s\n", e.id, *scale, time.Since(start).Seconds(), out)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *runID)
		return 2
	}
	return 0
}

func registry(seed int64, parallelism int) []experiment {
	params := func(scale string) experiments.Params {
		p := experiments.DefaultParams()
		if scale == "paper" {
			p = experiments.PaperScale()
		}
		p.Seed = seed
		p.Parallelism = parallelism
		return p
	}
	eff := func(scale string) experiments.EffectivenessParams {
		p := experiments.DefaultEffectiveness()
		if scale == "paper" {
			p = experiments.PaperEffectiveness()
		}
		p.Seed = seed
		p.Parallelism = parallelism
		return p
	}
	return []experiment{
		{"fig8a", "cluster replication overhead vs clusters/peer", func(s string) (string, error) {
			rows, err := experiments.Fig8a(params(s), nil)
			return experiments.RenderFig8a(rows), err
		}},
		{"fig8b", "avg hops per item vs data volume (Hyper-M vs CAN baselines)", func(s string) (string, error) {
			rows, err := experiments.Fig8b(params(s), nil)
			return experiments.RenderFig8b(rows), err
		}},
		{"fig8c", "avg hops per item vs overlay layers", func(s string) (string, error) {
			rows, err := experiments.Fig8c(params(s), nil)
			return experiments.RenderFig8c(rows), err
		}},
		{"fig9", "data distribution among nodes under skew", func(s string) (string, error) {
			rows, err := experiments.Fig9(params(s), 3)
			return experiments.RenderFig9(rows), err
		}},
		{"fig10a", "range query recall vs peers contacted", func(s string) (string, error) {
			rows, err := experiments.Fig10a(eff(s), nil)
			return experiments.RenderFig10a(rows), err
		}},
		{"fig10b", "k-nn precision/recall vs clusters/peer and C", func(s string) (string, error) {
			rows, err := experiments.Fig10b(eff(s), nil, nil)
			return experiments.RenderFig10b(rows), err
		}},
		{"fig10c", "recall loss vs post-creation insertions", func(s string) (string, error) {
			rows, err := experiments.Fig10c(eff(s), nil)
			return experiments.RenderFig10c(rows), err
		}},
		{"fig11", "clustering quality per vector space", func(s string) (string, error) {
			rows, err := experiments.Fig11(eff(s), 6)
			return experiments.RenderFig11(rows), err
		}},
		{"energy", "modeled energy/makespan on a MANET (extension)", func(s string) (string, error) {
			p := experiments.DefaultEnergyParams()
			p.Params = params(s)
			rows, err := experiments.ExtEnergy(p)
			return experiments.RenderEnergy(rows), err
		}},
		{"overlay", "overlay independence: CAN vs z-order ring (extension)", func(s string) (string, error) {
			rows, err := experiments.ExtOverlayIndependence(eff(s))
			return experiments.RenderOverlayIndep(rows), err
		}},
		{"agg", "score aggregation policy ablation (extension)", func(s string) (string, error) {
			rows, err := experiments.ExtAggregation(eff(s))
			return experiments.RenderAgg(rows), err
		}},
		{"levels", "wavelet levels cost/quality trade-off (extension, §6.1.1)", func(s string) (string, error) {
			rows, err := experiments.ExtLevels(eff(s), nil)
			return experiments.RenderLevels(rows), err
		}},
		{"wavelet", "wavelet convention ablation: averaging/orthonormal/D4 (extension)", func(s string) (string, error) {
			rows, err := experiments.ExtWavelet(eff(s))
			return experiments.RenderWavelet(rows), err
		}},
		{"loss", "failure injection: recall under message loss (extension)", func(s string) (string, error) {
			rows, err := experiments.ExtLoss(eff(s), nil)
			return experiments.RenderLoss(rows), err
		}},
		{"churn", "peer failures after publication (extension)", func(s string) (string, error) {
			rows, err := experiments.ExtChurn(eff(s), nil)
			return experiments.RenderChurn(rows), err
		}},
		{"scale", "cost scaling with network size (extension)", func(s string) (string, error) {
			rows, err := experiments.ExtScale(params(s), nil)
			return experiments.RenderScale(rows), err
		}},
	}
}
