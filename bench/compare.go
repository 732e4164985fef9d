package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// declared is BENCHMARK.json's view of one metric.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func readRunsFile(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// side is one commit's runs of one (workload, metric), keyed by seed.
type side map[int64]float64

func (s side) values() []float64 {
	var v []float64
	for _, x := range s {
		v = append(v, x)
	}
	return v
}

// compare prints, for each (workload, metric) of two result files, both
// sides' medians and quartiles, the rate at which the change wins runs
// paired by seed, and a verdict.
//
// Timings and other noisy metrics follow the regression rules:
//
//   - improved: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's quartile
//     spread;
//   - unresolved: the parent's spread is wider than the bound, unless
//     every change run beats every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - worse within bound: the mirror of improved, short of the bound;
//   - within bound: none of these.
//
// The exact metrics are compared seed by seed: identical, improved (better
// on some seeds, worse on none) or regressed (worse on any seed). Each
// workload also gets a line saying on how many seeds the fixed op list's
// digest fingerprint differs. Metrics without a bound (the per-layer
// ones) get only "improved" or "-".
func compare(benchPath, parentPath, changePath string, out io.Writer) error {
	b, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	decl := map[string]declared{}
	for _, d := range append(b.EndToEnd, b.PerLayer...) {
		decl[d.Name] = d
	}
	parent, err := readRunsFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readRunsFile(changePath)
	if err != nil {
		return err
	}
	collect := func(recs []record) map[[2]string]side {
		m := map[[2]string]side{}
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := [2]string{r.Workload, name}
				if m[k] == nil {
					m[k] = side{}
				}
				m[k][r.Seed] = v.Value
			}
		}
		return m
	}
	ps, cs := collect(parent), collect(change)
	fmt.Fprintf(out, "%-12s %-28s %-38s %-38s %6s  %s\n", "workload", "metric",
		"parent q1 / median / q3", "change q1 / median / q3", "wins", "verdict")
	for _, w := range workloads {
		for _, d := range append(slices.Clone(endToEnd), perLayer...) {
			p, c := ps[[2]string{w.name, d.name}], cs[[2]string{w.name, d.name}]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			dl, ok := decl[d.name]
			if !ok {
				return fmt.Errorf("metric %s is not declared in %s", d.name, benchPath)
			}
			better := func(x, y float64) bool { // x better than y
				if dl.Better == "higher" {
					return x > y
				}
				return x < y
			}
			var wins, losses, pairs int
			for seed, x := range c {
				if y, ok := p[seed]; ok {
					pairs++
					switch {
					case better(x, y):
						wins++
					case better(y, x):
						losses++
					}
				}
			}
			pv, cv := p.values(), c.values()
			pq1, pmed, pq3 := quantile(pv, 0.25), quantile(pv, 0.5), quantile(pv, 0.75)
			cq1, cmed, cq3 := quantile(cv, 0.25), quantile(cv, 0.5), quantile(cv, 0.75)
			var verdict string
			if exact[d.name] {
				verdict = exactVerdict(wins, losses, pairs)
			} else {
				verdict = noisyVerdict(dl.Bound, better, wins, losses, pairs, pv, cv)
			}
			fmt.Fprintf(out, "%-12s %-28s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %3d/%-3d %s\n",
				w.name, d.name, pq1, pmed, pq3, cq1, cmed, cq3, wins, pairs, verdict)
		}
		if line := fingerprintLine(w.name, parent, change); line != "" {
			fmt.Fprintln(out, line)
		}
	}
	return nil
}

// exactVerdict judges a metric that is a pure function of the seed from
// its paired runs: any difference is a change.
func exactVerdict(wins, losses, pairs int) string {
	switch {
	case pairs == 0:
		return "-"
	case losses > 0:
		return fmt.Sprintf("regressed: worse on %d of %d seeds", losses, pairs)
	case wins > 0:
		return fmt.Sprintf("improved: better on %d of %d seeds, worse on none", wins, pairs)
	}
	return "identical on every seed"
}

func noisyVerdict(bound *float64, better func(x, y float64) bool, wins, losses, pairs int, pv, cv []float64) string {
	pq1, pmed, pq3 := quantile(pv, 0.25), quantile(pv, 0.5), quantile(pv, 0.75)
	cmed := median(cv)
	beyondSpread := math.Abs(cmed-pmed) > pq3-pq1
	allBetter := true
	for _, x := range cv {
		for _, y := range pv {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(cmed, pmed) && beyondSpread:
		return "improved"
	case bound == nil:
		return "-"
	case (pq3-pq1)/math.Abs(pmed) > *bound && !allBetter:
		return "unresolved"
	case better(pmed, cmed) && math.Abs(cmed-pmed) > *bound*math.Abs(pmed):
		return "regressed beyond bound"
	case pairs > 0 && float64(losses) >= 0.9*float64(pairs) && better(pmed, cmed) && beyondSpread:
		return "worse within bound"
	}
	return "within bound"
}

// fingerprintLine reports on how many seeds the two files' digest
// fingerprints of a workload differ, or "" when neither file has any.
func fingerprintLine(workload string, parent, change []record) string {
	prints := func(recs []record) map[int64]string {
		m := map[int64]string{}
		for _, r := range recs {
			if r.Workload == workload && r.Fingerprint != "" {
				m[r.Seed] = r.Fingerprint
			}
		}
		return m
	}
	p, c := prints(parent), prints(change)
	var differ, pairs int
	for seed, fc := range c {
		if fp, ok := p[seed]; ok {
			pairs++
			if fp != fc {
				differ++
			}
		}
	}
	if pairs == 0 {
		return ""
	}
	if differ == 0 {
		return fmt.Sprintf("%-12s %-28s identical on all %d seeds", workload, fingerprintLabel, pairs)
	}
	return fmt.Sprintf("%-12s %-28s differs on %d of %d seeds: the schedules changed", workload, fingerprintLabel, differ, pairs)
}
