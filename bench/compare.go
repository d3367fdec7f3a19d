package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the comparison reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// noise is a side's run-to-run spread: the quartile distance over the median
// with four or more runs, the full range over the median with fewer.
func noise(xs []float64) float64 {
	if len(xs) >= 4 {
		return spread(xs)
	}
	s := sortedCopy(xs)
	if m := median(s); len(s) > 1 && m != 0 {
		return math.Abs((s[len(s)-1] - s[0]) / m)
	}
	return 0
}

// verdict labels one (workload, metric) pair. worse is how much the second
// side's median is worse than the first's, as a share of the first's.
func verdict(worse, spreadA, spreadB, bound float64) string {
	switch {
	case math.Max(spreadA, spreadB) > bound:
		return "unresolved" // the noise is wider than the bound: no call either way
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, the second file's
// median against the first's and labels the change against the metric's
// bound. Returns 1 when anything regressed.
func compareFiles(pathA, pathB, benchPath string) int {
	var a, b resultsFile
	var bj benchmarkJSON
	for _, in := range []struct {
		path string
		v    any
	}{{pathA, &a}, {pathB, &b}, {benchPath, &bj}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	ga, gb := groupRuns(a.Runs), groupRuns(b.Runs)
	fmt.Printf("base: %s (%s)\nnew:  %s (%s)\n", pathA, a.Env, pathB, b.Env)
	counts := map[string]int{}
	for _, sp := range workloads {
		fmt.Printf("\n== %s ==\n", sp.Name)
		fmt.Printf("   %-16s %13s %13s %-10s %9s %8s %8s %6s  %s\n",
			"metric", "base median", "new median", "unit", "new/base", "spread A", "spread B", "bound", "verdict")
		for _, d := range bj.EndToEnd {
			va, vb := ga[groupKey(sp.Name, 0, d.Name)], gb[groupKey(sp.Name, 0, d.Name)]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("   %-16s missing on one side\n", d.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			var worse, rel float64
			if ma != 0 {
				rel = mb / ma
				worse = (mb - ma) / ma
				if d.Better == "higher" {
					worse = -worse
				}
			}
			v := verdict(worse, noise(va), noise(vb), d.Bound)
			counts[v]++
			fmt.Printf("   %-16s %13.6g %13.6g %-10s %9.4f %7.1f%% %7.1f%% %5.0f%%  %s\n",
				d.Name, ma, mb, d.Unit, rel, 100*noise(va), 100*noise(vb), 100*d.Bound, v)
		}
	}
	fmt.Printf("\n%d ok, %d regressed, %d unresolved (n=%d vs n=%d runs per pair; new/base is the ratio of medians, base shown)\n",
		counts["ok"], counts["regressed"], counts["unresolved"],
		len(ga[groupKey(workloads[0].Name, 0, "setup_s")]), len(gb[groupKey(workloads[0].Name, 0, "setup_s")]))
	if counts["regressed"] > 0 {
		return 1
	}
	return 0
}
