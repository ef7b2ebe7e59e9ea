// Package explain turns a search's raw observability artifacts — the
// JSONL node trace and the final metrics Report — into an audit: per
// lattice level, why nodes were dismissed (necessary-condition 1,
// necessary-condition 2, over the suppression budget) versus scanned in
// detail; how the node budget was consumed over time; and how much the
// generalization cache built and the roll-up store saved. The audit
// reconciles exactly against the Report's node counters, so a mismatch
// (a trace truncated mid-run, events from a different search) is an
// error, not a silently wrong table.
package explain

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"psk/internal/obs"
)

// LevelStat is the prune attribution for one lattice height: of the
// nodes evaluated at this level, how many each gate dismissed and how
// many reached a detailed group scan.
type LevelStat struct {
	// Height is the lattice height (level-vector sum).
	Height int `json:"height"`
	// Evaluated is the number of node evaluations at this height.
	Evaluated int64 `json:"evaluated"`
	// PrunedCondition1 / PrunedCondition2 / OverBudget are dismissals by
	// each gate, in gate order.
	PrunedCondition1 int64 `json:"pruned_condition1"`
	PrunedCondition2 int64 `json:"pruned_condition2"`
	OverBudget       int64 `json:"over_budget"`
	// Scanned is satisfied + violated: evaluations that survived every
	// gate and paid for a detailed group scan.
	Scanned   int64 `json:"scanned"`
	Satisfied int64 `json:"satisfied"`
	Violated  int64 `json:"violated"`
	Errors    int64 `json:"errors"`
	// WallNs is the summed evaluation wall time at this height.
	WallNs int64 `json:"wall_ns"`
}

// PruneRate is the fraction of this level's evaluations a gate stopped
// before a detailed scan.
func (l LevelStat) PruneRate() float64 {
	if l.Evaluated == 0 {
		return 0
	}
	return float64(l.PrunedCondition1+l.PrunedCondition2+l.OverBudget) / float64(l.Evaluated)
}

// TimelinePoint is one step of the budget-consumption timeline: after
// the Nth evaluation (in emission order), the cumulative node count and
// spent wall time. AtNs is the trace's emission offset where available
// (schema v2); on v1 traces it falls back to cumulative evaluation
// time, which overstates elapsed time for parallel runs but preserves
// ordering.
type TimelinePoint struct {
	AtNs   int64 `json:"at_ns"`
	Nodes  int64 `json:"nodes"`
	WallNs int64 `json:"wall_ns"`
}

// Audit is the reconciled explain view of one search run.
type Audit struct {
	// SchemaVersion is the highest trace schema seen in the stream.
	SchemaVersion int `json:"schema_version"`
	// Events is the total trace events consumed.
	Events int64 `json:"events"`
	// Levels is the per-height prune attribution, height ascending.
	Levels []LevelStat `json:"levels"`
	// Timeline is the budget-consumption curve, downsampled to at most
	// timelinePoints entries (always keeping the final point).
	Timeline []TimelinePoint `json:"timeline"`
	// Report echoes the metrics report the audit reconciled against.
	Report *obs.Report `json:"report,omitempty"`
}

// timelinePoints caps the timeline length so an audit of a multi-GB
// trace stays small; the curve keeps every k-th event plus the last.
const timelinePoints = 256

// FromReader streams a JSONL trace into an Audit, never holding the
// event stream in memory, and reconciles it against rep (nil rep skips
// reconciliation — useful when only the trace survived).
func FromReader(r io.Reader, rep *obs.Report) (*Audit, error) {
	a := &Audit{Report: rep}
	byHeight := map[int]*LevelStat{}
	var points []TimelinePoint
	var cumNodes, cumWall, lastAt int64
	err := obs.ScanEvents(r, func(ev obs.Event) error {
		a.Events++
		if ev.SchemaVersion > a.SchemaVersion {
			a.SchemaVersion = ev.SchemaVersion
		}
		ls := byHeight[ev.Height]
		if ls == nil {
			ls = &LevelStat{Height: ev.Height}
			byHeight[ev.Height] = ls
		}
		ls.Evaluated++
		ls.WallNs += ev.DurationNs
		switch ev.Verdict {
		case obs.VerdictSatisfied.String():
			ls.Satisfied++
			ls.Scanned++
		case obs.VerdictViolated.String():
			ls.Violated++
			ls.Scanned++
		case obs.VerdictPrunedCondition1.String():
			ls.PrunedCondition1++
		case obs.VerdictPrunedCondition2.String():
			ls.PrunedCondition2++
		case obs.VerdictOverBudget.String():
			ls.OverBudget++
		case obs.VerdictError.String():
			ls.Errors++
		default:
			return fmt.Errorf("explain: unknown verdict %q in trace event %d", ev.Verdict, a.Events)
		}
		cumNodes++
		cumWall += ev.DurationNs
		at := ev.AtNs
		if at == 0 { // v1 trace: synthesize a monotone coordinate
			at = cumWall
		}
		if at > lastAt {
			lastAt = at
		}
		points = append(points, TimelinePoint{AtNs: lastAt, Nodes: cumNodes, WallNs: cumWall})
		if len(points) > 2*timelinePoints {
			points = downsample(points)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(points) > timelinePoints {
		points = downsample(points)
	}
	a.Timeline = points
	for _, ls := range byHeight {
		a.Levels = append(a.Levels, *ls)
	}
	sort.Slice(a.Levels, func(i, j int) bool { return a.Levels[i].Height < a.Levels[j].Height })
	if rep != nil {
		if err := a.Reconcile(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// downsample halves a timeline by keeping every other point, always
// retaining the final one.
func downsample(points []TimelinePoint) []TimelinePoint {
	out := points[:0]
	for i := 0; i < len(points); i += 2 {
		out = append(out, points[i])
	}
	if last := points[len(points)-1]; len(out) == 0 || out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// Totals sums the per-level attribution into one NodeCounts — the view
// Reconcile compares against the Report.
func (a *Audit) Totals() obs.NodeCounts {
	var n obs.NodeCounts
	for _, l := range a.Levels {
		n.Evaluated += l.Evaluated
		n.Satisfied += l.Satisfied
		n.Violated += l.Violated
		n.PrunedCondition1 += l.PrunedCondition1
		n.PrunedCondition2 += l.PrunedCondition2
		n.OverBudget += l.OverBudget
		n.Errors += l.Errors
	}
	return n
}

// Reconcile checks that the trace-derived verdict totals exactly equal
// the Report's node counters. The two are written by the same engine
// callback, so any difference means the artifacts don't describe the
// same completed run.
func (a *Audit) Reconcile() error {
	if a.Report == nil {
		return fmt.Errorf("explain: no report to reconcile against")
	}
	got, want := a.Totals(), a.Report.Nodes
	if got != want {
		return fmt.Errorf("explain: trace does not reconcile with report: trace %+v, report %+v", got, want)
	}
	return nil
}

// WriteJSON writes the audit as indented JSON.
func (a *Audit) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteText renders the audit as the human-readable block `pskanon
// -explain` prints: the per-level prune table, the budget timeline
// (coarsened to ten rows), and the efficiency summary from the report.
func (a *Audit) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "explain: %d trace events (schema v%d)\n\n", a.Events, maxInt(a.SchemaVersion, 1))

	fmt.Fprintln(w, "prune attribution by lattice level:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "height\tevaluated\tcond-1\tcond-2\tover-budget\tscanned\tsatisfied\tviolated\terrors\tprune%\twall\t")
	tot := a.Totals()
	var totWall int64
	for _, l := range a.Levels {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%s\t\n",
			l.Height, l.Evaluated, l.PrunedCondition1, l.PrunedCondition2, l.OverBudget,
			l.Scanned, l.Satisfied, l.Violated, l.Errors, 100*l.PruneRate(), fmtNs(l.WallNs))
		totWall += l.WallNs
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%s\t\n",
		tot.Evaluated, tot.PrunedCondition1, tot.PrunedCondition2, tot.OverBudget,
		tot.Satisfied+tot.Violated, tot.Satisfied, tot.Violated, tot.Errors,
		100*tot.PruneRate(), fmtNs(totWall))
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(a.Timeline) > 0 {
		fmt.Fprintln(w, "\nbudget consumption timeline:")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "at\tnodes\twall spent\t")
		step := (len(a.Timeline) + 9) / 10
		for i := 0; i < len(a.Timeline); i += step {
			p := a.Timeline[i]
			fmt.Fprintf(tw, "%s\t%d\t%s\t\n", fmtNs(p.AtNs), p.Nodes, fmtNs(p.WallNs))
		}
		if last := a.Timeline[len(a.Timeline)-1]; (len(a.Timeline)-1)%step != 0 {
			fmt.Fprintf(tw, "%s\t%d\t%s\t\n", fmtNs(last.AtNs), last.Nodes, fmtNs(last.WallNs))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if r := a.Report; r != nil {
		fmt.Fprintln(w, "\nefficiency (from metrics report):")
		fmt.Fprintf(w, "  hierarchy walks: ~%d KiB built; level maps: %d hits, %d misses\n",
			r.Cache.Bytes/1024, r.Cache.MapHits, r.Cache.MapMisses)
		ru := r.Rollup
		if tot := ru.Merges + ru.Reuses + ru.RowScans; tot > 0 {
			fmt.Fprintf(w, "  rollup store: %.1f%% scans avoided (%d merges, %d reuses, %d row scans)\n",
				100*float64(ru.Merges+ru.Reuses)/float64(tot), ru.Merges, ru.Reuses, ru.RowScans)
		}
		if fr := r.Frontier; fr.Scored > 0 {
			fmt.Fprintf(w, "  frontier: %d scored, %d members, %d dominated\n",
				fr.Scored, fr.Members, fr.Dominated)
		}
		if r.BudgetStops > 0 {
			fmt.Fprintf(w, "  budget stops: %d (search ended early)\n", r.BudgetStops)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fmtNs mirrors the report's duration formatting: ns below 10µs, then
// µs/ms/s at sensible cutoffs.
func fmtNs(ns int64) string {
	switch {
	case ns < 10_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 10_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 10_000_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}

// String renders WriteText to a string (convenience for the CLI).
func (a *Audit) String() string {
	var b strings.Builder
	_ = a.WriteText(&b)
	return b.String()
}
