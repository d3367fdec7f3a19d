// Command bench is the repository's benchmark: four named workloads over the
// Hyper-M stack, end-to-end metrics measured with tracing off and per-layer
// metrics from a separate traced run. BENCHMARK.json at the repository root
// describes it; README.md in this directory explains the workloads, the
// metrics and how the layers are expected to move them.
//
// One run of one workload, as the benchmark contract drives it:
//
//	go run ./bench --workload serve-uniform --seed 1 --seconds 20 --trace 0
//
// prints a table and, as the last line of standard output, one JSON object
// {correct, attempted, failed, metrics}. Without --workload every workload
// runs in both trace modes and the set is written to bench/out/results.json:
//
//	go run ./bench                       # one full set
//	go run ./bench -repeat 3             # three sets, min/median/max per metric
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// environment is the stamp printed with every result.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
	OutDir     string `json:"-"`
	// ProbeBudget is how long each layer probe measures for.
	ProbeBudget time.Duration `json:"-"`
}

// commit is the VCS revision the toolchain stamped into the binary, when it
// did (go run in a plain checkout does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newEnvironment(outDir string) environment {
	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}
	return environment{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Clients: clients,
		GoVersion: runtime.Version(), Commit: commit(), Transport: "tcp", OutDir: outDir,
		ProbeBudget: defaultProbeBudget}
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d clients=%d %s commit=%s transport=%s-loopback",
		e.NProc, e.GoMaxProcs, e.Clients, e.GoVersion, e.Commit, e.Transport)
}

// runOne runs one workload in one trace mode.
func runOne(ctx context.Context, sp spec, env environment, seed int64, seconds float64, trace int) (runResult, error) {
	t0 := time.Now()
	var res runResult
	var err error
	switch {
	case sp.Serve && trace == 0:
		res, err = serveEndToEnd(ctx, sp, env, seed, seconds)
	case sp.Serve:
		res, err = serveTraced(ctx, sp, env, seed, seconds)
	case trace == 0:
		res, err = disseminateEndToEnd(ctx, sp, seed, seconds)
	default:
		res, err = disseminateTraced(ctx, sp, env, seed, seconds)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", sp.Name, err)
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	res.Metrics = filled(defs, res.Metrics)
	res.Workload, res.Trace, res.Seed, res.Seconds = sp.Name, trace, seed, seconds
	res.WallS = time.Since(t0).Seconds()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.first != nil {
		res.notef("first failure: %v", res.first)
	}
	return res, nil
}

// report prints one run as a table: every metric by name with value, unit and
// the number of samples it rests on.
func report(res runResult, env environment) {
	defs := endToEnd
	kind := "end-to-end, tracing off"
	if res.Trace == 1 {
		defs, kind = perLayer, "per-layer, traced run"
	}
	fmt.Printf("\n== %s (%s) seed=%d seconds=%g wall=%.1fs ==\n", res.Workload, kind, res.Seed, res.Seconds, res.WallS)
	fmt.Printf("   %s\n", env)
	fmt.Printf("   %-38s %16s %-10s %9s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		v := res.Metrics[d.Name]
		samples := "-"
		if v.Samples > 0 {
			samples = fmt.Sprint(v.Samples)
		}
		fmt.Printf("   %-38s %16.6g %-10s %9s\n", d.Name, v.Value, v.Unit, samples)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("   correct=%v attempted=%d failed=%d error_rate=%g\n", res.Correct, res.Attempted, res.Failed, rate)
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

// contractLine is the last line of a single run: exactly the keys the
// benchmark contract names.
func contractLine(res runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for name, v := range res.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// resultsFile is what a full run writes and -compare reads.
type resultsFile struct {
	Env   environment `json:"env"`
	Claim *string     `json:"claim"` // always null: the benchmark claims no gain
	Runs  []runResult `json:"runs"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "run one workload (disseminate, serve-uniform, serve-skewed, serve-ingest); empty runs all four in both trace modes")
	seed := flag.Int64("seed", 1, "traffic seed: request i is a pure function of (seed, i)")
	seconds := flag.Float64("seconds", 20, "length of each timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	repeat := flag.Int("repeat", 1, "full sets to run (without -workload); prints min/median/max per metric")
	compare := flag.Bool("compare", false, "compare two results files given as arguments against the bounds in BENCHMARK.json")
	outDir := flag.String("out-dir", filepath.Join("bench", "out"), "directory for trace files and results.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be > 0 and -repeat >= 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	env := newEnvironment(*outDir)
	ctx := context.Background()

	if *workload != "" {
		sp, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		res, err := runOne(ctx, sp, env, *seed, *seconds, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		report(res, env)
		fmt.Println(contractLine(res))
		if !res.Correct {
			return 1
		}
		return 0
	}

	file := resultsFile{Env: env}
	code := 0
	start := time.Now()
	for set := 0; set < *repeat; set++ {
		for _, sp := range workloads {
			for tr := 0; tr <= 1; tr++ {
				res, err := runOne(ctx, sp, env, *seed, *seconds, tr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				report(res, env)
				if !res.Correct {
					code = 1
				}
				file.Runs = append(file.Runs, res)
				runtime.GC()
			}
		}
	}
	fmt.Printf("\ntotal wall-clock %.1f s for %d set(s)\n", time.Since(start).Seconds(), *repeat)
	if *repeat > 1 {
		printSpread(file.Runs)
	}
	path := filepath.Join(*outDir, "results.json")
	b, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return code
}

// groupRuns collects each (workload, trace, metric)'s values over the sets.
func groupRuns(runs []runResult) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		for name, v := range r.Metrics {
			key := groupKey(r.Workload, r.Trace, name)
			out[key] = append(out[key], v.Value)
		}
	}
	return out
}

func groupKey(workload string, trace int, metric string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", workload, trace, metric)
}

// printSpread prints min/median/max of every metric over the repeated sets.
func printSpread(runs []runResult) {
	groups := groupRuns(runs)
	for _, sp := range workloads {
		for tr, defs := range [][]metricDef{endToEnd, perLayer} {
			fmt.Printf("\n== %s trace=%d over %d sets ==\n", sp.Name, tr, len(groups[groupKey(sp.Name, tr, defs[0].Name)]))
			fmt.Printf("   %-38s %14s %14s %14s %-10s\n", "metric", "min", "median", "max", "unit")
			for _, d := range defs {
				vs := sortedCopy(groups[groupKey(sp.Name, tr, d.Name)])
				if len(vs) == 0 {
					continue
				}
				fmt.Printf("   %-38s %14.6g %14.6g %14.6g %-10s\n", d.Name, vs[0], median(vs), vs[len(vs)-1], d.Unit)
			}
		}
	}
}
