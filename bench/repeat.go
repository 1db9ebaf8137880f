package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// repeatRun is one child run's result: its contract line plus the
// extra values (slo_rps, error_ratio) printed on the line before it.
type repeatRun struct {
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

// spread summarizes one metric over a workload's runs. Quartiles are
// Python's statistics.quantiles(values, n=4) and Spread is their
// distance as a share of the median.
type spread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// repeatReport is what -repeat writes and -compare reads.
type repeatReport struct {
	Env     environment                  `json:"env"`
	Seconds int                          `json:"seconds"`
	Runs    map[string][]repeatRun       `json:"runs"`
	Summary map[string]map[string]spread `json:"summary"`
}

// runRepeat runs each workload n times, one child process per run (so
// each run pays its own set-up, as separate invocations do), with seeds
// seed..seed+n-1, and reports every end-to-end metric's spread.
func runRepeat(names []string, seed uint64, seconds, n int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := repeatReport{Env: currentEnv(config{Seed: seed, Duration: time.Duration(seconds) * time.Second}),
		Seconds: seconds, Runs: map[string][]repeatRun{}, Summary: map[string]map[string]spread{}}
	for _, w := range names {
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			run, err := childRun(exe, w, s, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			rep.Runs[w] = append(rep.Runs[w], run)
		}
		rep.Summary[w] = summarize(rep.Runs[w])
	}
	for _, w := range names {
		fmt.Printf("%s (%d runs)\n", w, n)
		for _, d := range endToEnd {
			for _, name := range []string{d.Name, "raw." + d.Name} {
				if s, ok := rep.Summary[w][name]; ok {
					fmt.Printf("  %-22s median %14.4f %-6s q1 %14.4f q3 %14.4f spread %6.2f%%\n",
						name, s.Median, d.Unit, s.Q1, s.Q3, 100*s.Spread)
				}
			}
		}
		var slo []float64
		for _, r := range rep.Runs[w] {
			if v, ok := r.Extra["slo_rps"]; ok {
				slo = append(slo, v)
			}
		}
		if len(slo) > 0 {
			fmt.Printf("  %-18s %v\n", "slo_rps", slo)
		}
	}
	if out != "" {
		return writeJSON(out, rep)
	}
	return nil
}

// childRun runs one untraced run in a child process and parses its last
// line.
func childRun(exe, workload string, seed uint64, seconds int) (repeatRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return repeatRun{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return repeatRun{}, fmt.Errorf("child printed %d lines, want an info line and a result line", len(lines))
	}
	var info infoLine
	if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
		return repeatRun{}, fmt.Errorf("parsing info line: %w", err)
	}
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return repeatRun{}, fmt.Errorf("parsing result line: %w", err)
	}
	run := repeatRun{Seed: seed, Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed,
		Metrics: map[string]float64{}, Extra: map[string]float64{}}
	for k, m := range line.Metrics {
		run.Metrics[k] = m.Value
	}
	for k, m := range info.Extra {
		run.Extra[k] = m.Value
	}
	return run, nil
}

// summarize describes each end-to-end metric over the runs, and the raw
// (unscaled) value beside it where the runs report one.
func summarize(runs []repeatRun) map[string]spread {
	out := map[string]spread{}
	for _, d := range endToEnd {
		var vals, raw []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[d.Name])
			if v, ok := r.Extra["raw."+d.Name]; ok {
				raw = append(raw, v)
			}
		}
		out[d.Name] = describe(d.Unit, vals)
		if len(raw) == len(runs) {
			out["raw."+d.Name] = describe(d.Unit, raw)
		}
	}
	return out
}

func describe(unit string, vals []float64) spread {
	q1, med, q3 := pyQuartiles(vals)
	return spread{Unit: unit, Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / med, Values: vals}
}

// pyQuartiles returns statistics.quantiles(vals, n=4) (the "exclusive"
// method) around statistics.median(vals).
func pyQuartiles(vals []float64) (q1, med, q3 float64) {
	d := slices.Sorted(slices.Values(vals))
	n := len(d)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	if n < 2 {
		return d[0], med, d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// specMetric is an end-to-end metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// loadSpec reads BENCHMARK.json from the repository root: the current
// directory, or its parent when run from bench/.
func loadSpec() (*spec, error) {
	var errs []error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, errors.Join(errs...)
}

// verdict is one (workload, metric) comparison.
type verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Parent   spread  `json:"parent"`
	Change   spread  `json:"change"`
	PairsWon float64 `json:"share_of_pairs_won"`
	WorseBy  float64 `json:"worse_by"` // change median vs parent median, as a share; negative is better
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// compareMetric applies the rule for claiming a gain or a regression:
// improved when the change wins at least 9 in 10 pairs and the medians
// differ by more than the parent's quartile distance; unresolved when
// the parent's own spread is wider than the bound and not every change
// run beats every parent run; regressed when the change's median is
// worse by more than the bound; otherwise unchanged.
func compareMetric(m specMetric, parent, change []float64) verdict {
	better := func(a, b float64) bool { // a is better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{Metric: m.Name, Unit: m.Unit, Parent: describe(m.Unit, parent), Change: describe(m.Unit, change), Bound: m.Bound}
	pairs := min(len(parent), len(change))
	won := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			won++
		}
	}
	if pairs > 0 {
		v.PairsWon = float64(won) / float64(pairs)
	}
	pm, cm := v.Parent.Median, v.Change.Median
	v.WorseBy = (cm - pm) / pm
	if m.Better == "higher" {
		v.WorseBy = -v.WorseBy
	}
	allBetter := slices.Max(change) < slices.Min(parent)
	if m.Better == "higher" {
		allBetter = slices.Min(change) > slices.Max(parent)
	}
	switch {
	case v.PairsWon >= 0.9 && better(cm, pm) && math.Abs(cm-pm) > v.Parent.Q3-v.Parent.Q1 &&
		(v.Parent.Spread <= m.Bound || allBetter):
		v.Verdict = "improved"
	case v.Parent.Spread > m.Bound && !allBetter:
		v.Verdict = "unresolved"
	case v.WorseBy > m.Bound:
		v.Verdict = "regressed"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// runCompare compares two -repeat reports metric by metric.
func runCompare(parentPath, changePath, out string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	var parent, change repeatReport
	for _, x := range []struct {
		path string
		rep  *repeatReport
	}{{parentPath, &parent}, {changePath, &change}} {
		b, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, x.rep); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	var vs []verdict
	for _, w := range workloads {
		pr, cr := parent.Runs[w], change.Runs[w]
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			var pv, cv []float64
			for _, r := range pr {
				pv = append(pv, r.Metrics[m.Name])
			}
			for _, r := range cr {
				cv = append(cv, r.Metrics[m.Name])
			}
			v := compareMetric(m, pv, cv)
			v.Workload = w
			vs = append(vs, v)
			fmt.Printf("%-13s %-18s parent %12.4f [%.4f, %.4f]  change %12.4f [%.4f, %.4f]  won %3.0f%%  worse by %+6.2f%% (bound %.0f%%)  %s\n",
				w, m.Name, v.Parent.Median, v.Parent.Q1, v.Parent.Q3, v.Change.Median, v.Change.Q1, v.Change.Q3,
				100*v.PairsWon, 100*v.WorseBy, 100*m.Bound, v.Verdict)
		}
	}
	if out != "" {
		return writeJSON(out, vs)
	}
	return nil
}
