package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json; the smoke test pins
// them against it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports: what a user of the
// system waits for and pays. Times are scaled to the calibration host
// (ref.go). The central op time is the mean, not the median: where ops
// run one after another it is the inverse of throughput, and when host
// contention splits the ops into a fast and a slow mode, as it does for
// republish, the mean moves with the share of slow ops while the median
// jumps between the modes.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_mean_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"alloc_mib_per_op", "MiB"},
	{"peak_rss_mib", "MiB"},
}

// Phases of the search telemetry recorder (obs.Phase names), reported as
// self time per op. The row-path "generalize" phase is left out: no
// workload's search takes that path.
var searchPhases = []string{
	"base-group-by", "rollup", "suppress", "policy-scan",
	"materialize", "search", "frontier-scan", "repair-ascent",
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reads 0 there. Time metrics without a percentile suffix
// are means per op, and all but the bench.* ones are scaled to the
// calibration host like the end-to-end times; counts are per op unless
// named otherwise.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"table.read_csv_ms", "ms"},
		{"table.write_csv_ms", "ms"},
		{"config.prepare_ms", "ms"},
		{"loss.measure_utility_ms", "ms"},
		{"search.call_ms", "ms"},
	}
	for _, p := range searchPhases {
		defs = append(defs, metricDef{"search." + p + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"setup.table.read_csv_ms", "ms"},
		metricDef{"setup.search.base-group-by_ms", "ms"},
		metricDef{"search.nodes_evaluated", "count"},
		metricDef{"search.lattice_fraction", "ratio"},
		metricDef{"search.rollup_merges", "count"},
		metricDef{"search.rollup_row_scans", "count"},
		metricDef{"search.frontier_scored", "count"},
		metricDef{"search.frontier_cut_skipped", "count"},
		metricDef{"generalize.cache_hit_ratio", "ratio"},
		metricDef{"generalize.levelmap_hit_ratio", "ratio"},
		metricDef{"generalize.cache_mib", "MiB"},
		metricDef{"core.policy_ms", "ms"},
		metricDef{"core.policy_evals", "count"},
		metricDef{"search.apply_ms_p50", "ms"},
		metricDef{"search.apply_ms_p99", "ms"},
		metricDef{"search.republish_ms_p50", "ms"},
		metricDef{"search.republish_ms_p99", "ms"},
		metricDef{"search.groups_recheck", "count"},
		metricDef{"search.repair_ascents", "count"},
		metricDef{"search.cold_fallbacks", "count"},
		metricDef{"serve.submit_ms_p50", "ms"},
		metricDef{"serve.submit_ms_p95", "ms"},
		metricDef{"serve.queue_wait_ms_p50", "ms"},
		metricDef{"serve.queue_wait_ms_p95", "ms"},
		metricDef{"serve.run_ms_p50", "ms"},
		metricDef{"serve.result_hit_ratio", "ratio"},
		metricDef{"serve.coalesced_ratio", "ratio"},
		metricDef{"serve.search_ratio", "ratio"},
		metricDef{"serve.rejected_429", "count"},
		metricDef{"serve.queue_depth_max", "count"},
		metricDef{"serve.job_records", "count"},
		metricDef{"serve.max_rate_ops_s", "jobs/s"},
		metricDef{"runtime.live_heap_mib", "MiB"},
		metricDef{"bench.raw_op_p50_ms", "ms"},
		metricDef{"bench.raw_op_p90_ms", "ms"},
		metricDef{"bench.ref_ms", "ms"},
		metricDef{"bench.gen_late_p95_ms", "ms"},
		metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"bench.span_coverage", "ratio"},
	)
}()

const mib = 1 << 20

// quantile is the q-quantile of xs, interpolating linearly between the
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summary describes one sample series of a run record.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and quartiles the way Python's
// statistics.median and statistics.quantiles(xs, n=4) do, which is the
// rule the run-to-run spread of the benchmark is judged by.
func summarize(xs []float64) summary {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	// statistics.quantiles, method "exclusive", four quantiles.
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{N: n, Median: med, Q1: q(1), Q3: q(3)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// allocBytes is the process's cumulative heap allocation; reading it does
// not stop the world, so it can bracket every op.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB is this process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMiB is the heap still reachable after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}
