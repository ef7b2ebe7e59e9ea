package experiments

import (
	"fmt"

	"psk/internal/dataset"
	"psk/internal/obs"
	"psk/internal/search"
	"psk/internal/table"
)

// E17: the telemetry replay — the Adult search of the earlier
// experiments re-run with the observability layer attached, comparing
// what each strategy's instrumentation reports: how hard the necessary
// conditions prune, how often the roll-up store saves a row scan, and
// where the wall time goes phase by phase.

// TelemetryRow is one strategy's recorded search.
type TelemetryRow struct {
	Strategy string
	// Node is the found minimal node ("-" when nothing satisfies).
	Node string
	// Report is the strategy's full telemetry snapshot.
	Report *obs.Report
	// NodesEvaluated is the search's own Stats counter, pinned equal to
	// the report's verdict total by the determinism tests.
	NodesEvaluated int
}

// TelemetryResult is the E17 study.
type TelemetryResult struct {
	Size, K, P int
	Rows       []TelemetryRow
	// TraceEvents counts JSONL events emitted across every run (-1 when
	// no tracer was attached); with serial evaluation it must equal
	// TotalNodes, which the pskexp acceptance check reads off the
	// emitted trace file.
	TraceEvents int64
	// TotalNodes sums NodesEvaluated over all strategies.
	TotalNodes int64
}

// Reports keys each strategy's snapshot by name (the -metrics-json
// payload of pskexp -exp telemetry).
func (r TelemetryResult) Reports() map[string]*obs.Report {
	out := make(map[string]*obs.Report, len(r.Rows))
	for _, row := range r.Rows {
		out[row.Strategy] = row.Report
	}
	return out
}

// RunTelemetry replays the Adult search under every lattice strategy
// with a fresh Recorder each, optionally streaming all node
// evaluations to one shared tracer. Evaluation stays serial so the
// trace's event count is exactly the evaluated-node total.
func RunTelemetry(n, k, p int, source *table.Table, seed int64, tracer *obs.Tracer) (TelemetryResult, error) {
	src := source
	if src == nil {
		var err error
		src, err = dataset.Generate(30000, 2006)
		if err != nil {
			return TelemetryResult{}, err
		}
	}
	im, err := src.Sample(n, seed)
	if err != nil {
		return TelemetryResult{}, err
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		return TelemetryResult{}, err
	}
	base := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             k,
		P:             p,
		MaxSuppress:   n / 100,
		UseConditions: true,
		Tracer:        tracer,
	}

	prefixes := dataset.LatticePrefixes()
	res := TelemetryResult{Size: n, K: k, P: p, TraceEvents: -1}
	for _, s := range []namedStrategy{
		{"Samarati", search.StrategySamarati},
		{"BottomUp", search.StrategyBottomUp},
		{"AllMinimal", search.StrategyAllMinimal},
		{"Incognito", search.StrategyIncognito},
	} {
		cfg := base
		cfg.Recorder = obs.NewRecorder()
		r, err := search.Run(im, cfg, s.strategy)
		if err != nil {
			return TelemetryResult{}, err
		}
		node := "-"
		if r.Found {
			node = r.Node.Label(prefixes)
		}
		res.Rows = append(res.Rows, TelemetryRow{
			Strategy: s.name, Node: node, Report: r.Report,
			NodesEvaluated: r.Stats.NodesEvaluated,
		})
		res.TotalNodes += int64(r.Stats.NodesEvaluated)
	}
	if tracer != nil {
		res.TraceEvents = tracer.Events()
	}
	return res, nil
}

// phaseNs extracts one phase's total from a report (0 when absent).
func phaseNs(rep *obs.Report, phase obs.Phase) int64 {
	for _, p := range rep.Phases {
		if p.Phase == phase.String() {
			return p.TotalNs
		}
	}
	return 0
}

// Format renders the prune-rate, roll-up and phase-time
// tables.
func (r TelemetryResult) Format() string {
	rows := make([][]string, len(r.Rows))
	phases := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rep := row.Report
		rows[i] = []string{
			row.Strategy, row.Node,
			fmt.Sprint(rep.Nodes.Evaluated),
			fmt.Sprintf("%.1f%%", 100*rep.Nodes.PruneRate()),
			fmt.Sprint(rep.Rollup.Merges),
			fmt.Sprint(rep.Rollup.RowScans),
			fmt.Sprint(rep.SuppressedRows),
		}
		phases[i] = []string{
			row.Strategy,
			fmt.Sprintf("%.2f", float64(phaseNs(rep, obs.PhaseGroupBy))/1e6),
			fmt.Sprintf("%.2f", float64(phaseNs(rep, obs.PhaseRollup))/1e6),
			fmt.Sprintf("%.2f", float64(phaseNs(rep, obs.PhaseSuppress))/1e6),
			fmt.Sprintf("%.2f", float64(phaseNs(rep, obs.PhasePolicy))/1e6),
			fmt.Sprintf("%.2f", float64(phaseNs(rep, obs.PhaseMaterialize))/1e6),
		}
	}
	out := fmt.Sprintf("Telemetry replay on Adult n=%d (%d-sensitive %d-anonymity, E17):\n%s",
		r.Size, r.P, r.K,
		renderTable([]string{"Strategy", "node", "evaluated", "prune rate", "rollup merges", "row scans", "suppressed"}, rows))
	out += "\nPhase wall time (ms):\n" +
		renderTable([]string{"Strategy", "group-by", "rollup", "suppress", "policy", "materialize"}, phases)
	if r.TraceEvents >= 0 {
		verdict := "MATCH"
		if r.TraceEvents != r.TotalNodes {
			verdict = "MISMATCH"
		}
		out += fmt.Sprintf("\ntrace events: %d, nodes evaluated: %d (%s)\n", r.TraceEvents, r.TotalNodes, verdict)
	}
	return out
}
