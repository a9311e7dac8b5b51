package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// storedRun is one run in a results.json file.
type storedRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// appendResult adds a run to the results file, creating it if need be, so
// repeating the suite with one -out builds a set of runs.
func appendResult(path string, cfg runConfig, res result) error {
	runs, err := readResults(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	runs = append(runs, storedRun{Workload: cfg.spec.name, Seed: cfg.seed, Trace: cfg.trace, Result: res})
	data, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResults(path string) ([]storedRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []storedRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a baseline a and a change b on one metric. The
// change is worse when its median is worse than the baseline's by more than
// the bound (and by more than the metric's absolute floor). When either
// side's own quartile spread is wider than the bound the row is unresolved,
// not ok — unless every run of the change reads better than every run of the
// baseline.
func judge(d metricDef, a, b []float64) (verdict string, ratio float64) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	worsening := mb - ma
	if d.Better == "higher" {
		worsening = ma - mb
	}
	if worsening > d.Bound*ma && worsening > d.floor {
		return verdictWorse, ratio
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if d.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return verdictUnresolved, ratio
		}
	}
	return verdictOK, ratio
}

// spread is the distance between the quartiles as a share of the median; a
// set of fewer than two runs has none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// compareFiles prints one row per workload and end-to-end metric and reports
// whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	collect := func(runs []storedRun, workload, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-10s %-20s %5s %14s %14s %18s %6s  %s\n", "workload", "metric", "unit", "A median", "B median", "B/A (base A)", "bound", "verdict")
	anyWorse := false
	for _, sp := range specs {
		for _, d := range endToEnd {
			xa, xb := collect(a, sp.name, d.Name), collect(b, sp.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, ratio := judge(d, xa, xb)
			anyWorse = anyWorse || v == verdictWorse
			fmt.Fprintf(w, "%-10s %-20s %5s %14.4f %14.4f %7.4f of %-8.4g %5.0f%%  %s (n=%d,%d)\n",
				sp.name, d.Name, d.Unit, median(xa), median(xb), ratio, median(xa), d.Bound*100, v, len(xa), len(xb))
		}
	}
	for _, set := range [][]storedRun{a, b} {
		for _, r := range set {
			if !r.Result.Correct {
				anyWorse = true
				fmt.Fprintf(w, "%-10s seed %d trace %v: failed %d of %d\n", r.Workload, r.Seed, r.Trace, r.Result.Failed, r.Result.Attempted)
			}
		}
	}
	return anyWorse, nil
}
