package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is the part of BENCHMARK.json the benchmark reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// compareFiles judges the untraced runs of head against those of base,
// one row per workload, every end-to-end metric against its bound:
// "regressed" when head's median is worse than base's by more than the
// bound, "unresolved" when base's own quartile spread is wider than the
// bound (unless every head run beats every base run, "better"), else
// "ok". Exits 1 when any pair regressed.
func compareFiles(manifestPath, basePath, headPath string, stdout, stderr io.Writer) int {
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "pskbench:", err)
		return 2
	}
	var sides [2]map[string][]*record
	for i, path := range []string{basePath, headPath} {
		f, err := readRuns(path)
		if err != nil {
			fmt.Fprintln(stderr, "pskbench:", err)
			return 2
		}
		sides[i] = make(map[string][]*record)
		for _, r := range f.Runs {
			if !r.Trace {
				sides[i][r.Workload] = append(sides[i][r.Workload], r)
			}
		}
	}
	status := 0
	for _, w := range man.Workloads {
		base, head := sides[0][w.Name], sides[1][w.Name]
		if len(base) == 0 && len(head) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%-10s base %2d runs, head %2d runs:", w.Name, len(base), len(head))
		for _, m := range man.EndToEnd {
			verdict, change := judge(metricValues(base, m.Name), metricValues(head, m.Name), m.Bound, m.Better == "lower")
			fmt.Fprintf(stdout, "  %s %s %+.1f%%", m.Name, verdict, change*100)
			if verdict == "regressed" {
				status = 1
			}
		}
		fmt.Fprintln(stdout)
	}
	return status
}

func metricValues(runs []*record, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge compares one metric's head runs with its base runs and returns
// the verdict and head's median change relative to base's median.
func judge(base, head []float64, bound float64, lowerBetter bool) (string, float64) {
	if len(base) == 0 || len(head) == 0 {
		return "missing", 0
	}
	b := summarize(base)
	if b.Median == 0 {
		return "missing", 0
	}
	change := (median(head) - b.Median) / b.Median
	worse := change
	if !lowerBetter {
		worse = -change
	}
	if (b.Q3-b.Q1)/b.Median > bound {
		if allBetter(base, head, lowerBetter) {
			return "better", change
		}
		return "unresolved", change
	}
	if worse > bound {
		return "regressed", change
	}
	return "ok", change
}

// allBetter reports whether every head run reads better than every base
// run.
func allBetter(base, head []float64, lowerBetter bool) bool {
	bs, hs := sorted(base), sorted(head)
	if lowerBetter {
		return hs[len(hs)-1] < bs[0]
	}
	return hs[0] > bs[len(bs)-1]
}
