package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/generalize"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/search"
	"psk/internal/stream"
	"psk/internal/table"
)

// churn is the share of the rows a delta batch retires, and appends.
const churn = 0.001

// runRepublish is the streaming publisher: one op is one delta batch
// (0.1% of the rows retired and as many appended) against an incremental
// session over the Adult table — Apply writes the ledger and the
// maintained statistics, Republish re-checks the changed groups. The
// cost is O(delta), so a scan-kernel win must not regress here and a
// delta-path win shows nowhere else. Batches come in epochs generated
// off the clock; each epoch starts from a freshly opened session.
func runRepublish(e *env) error {
	in := filepath.Join(e.dir, "adult.csv")
	if _, err := e.genInput(in); err != nil {
		return err
	}
	header, err := readHeader(in)
	if err != nil {
		return err
	}
	schema, err := e.job.Schema(header)
	if err != nil {
		return err
	}
	base, err := table.ReadCSVFile(in, &schema)
	if err != nil {
		return err
	}
	hs, m, err := e.masker()
	if err != nil {
		return err
	}
	cfg := search.Config{
		QIs:           e.job.QuasiIdentifiers,
		Confidential:  e.job.Confidential,
		Hierarchies:   hs,
		K:             e.job.K,
		P:             e.job.P,
		MaxSuppress:   e.job.MaxSuppress,
		UseConditions: true,
		Workers:       1,
	}

	// session is one incremental session; a traced one carries a
	// recorder and its snapshot right after publication. suppressed is
	// what the last republish reported.
	type session struct {
		s          *search.Incremental
		rec        *obs.Recorder
		start      *obs.Report
		suppressed int
	}
	open := func(traced bool) (*session, error) {
		ss := &session{}
		c := cfg
		if traced {
			ss.rec = obs.NewRecorder()
			c.Recorder = ss.rec
		}
		var err error
		if ss.s, err = search.OpenIncremental(base, c, search.StrategySamarati); err != nil {
			return nil, err
		}
		res, err := ss.s.Republish()
		if err != nil {
			return nil, err
		}
		if !res.Found {
			return nil, fmt.Errorf("initial publication found no generalization")
		}
		ss.start = ss.rec.Snapshot()
		return ss, nil
	}

	// Set-up is opening a session and publishing it, repeated.
	var (
		sessions []*session
		groupBy  []float64
	)
	for i := 0; i < e.opt.setups; i++ {
		if err := e.ref.sample(); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		ss, err := open(e.opt.trace)
		if err != nil {
			return err
		}
		e.out.setupS = append(e.out.setupS, time.Since(start).Seconds())
		groupBy = append(groupBy, phaseSelfMs(ss.start, "base-group-by"))
		sessions = []*session{ss}
	}
	if err := e.ref.setupDone(); err != nil {
		return err
	}

	// A traced run feeds every batch to an untraced session and a traced
	// twin.
	kinds := []bool{false}
	if e.opt.trace {
		kinds = append(kinds, true)
	}
	var (
		sum         reportSum
		traced, ops int
		batchesDone int
		dl          = e.deadline()
	)
	for epoch := 0; dl.more(batchesDone); epoch++ {
		// An untraced run's first epoch continues the last set-up session.
		if epoch > 0 || e.opt.trace {
			sessions = sessions[:0]
			for _, tr := range kinds {
				ss, err := open(tr)
				if err != nil {
					return err
				}
				sessions = append(sessions, ss)
			}
		}
		batches, err := dataset.GenerateBatches(base.NumRows(), e.opt.epoch, churn, e.opt.seed*1_000_003+int64(epoch))
		if err != nil {
			return err
		}
		mirror := table.NewLedger(base)
		runtime.GC()
		for j, b := range batches {
			if !dl.more(batchesDone) {
				break
			}
			if err := e.ref.due(); err != nil {
				return err
			}
			for k := range sessions {
				// Alternate which session goes first, so neither always
				// runs on a cache the other warmed.
				ss := sessions[(j+k)%len(sessions)]
				tr := ss.rec != nil
				var spans *spanLog
				if tr {
					spans = e.spans
				}
				e.out.op()
				a0 := allocBytes()
				start := time.Now()
				op := spans.begin(ops, 0, "republish", start)
				err := spans.call(ops, op, "search.apply", func() error { return ss.s.Apply(b.Append, b.Retire) })
				var res search.Result
				if err == nil {
					err = spans.call(ops, op, "search.republish", func() (err error) {
						res, err = ss.s.Republish()
						return err
					})
				}
				end := time.Now()
				spans.finish(op, end)
				a1 := allocBytes()
				ops++
				if err != nil || !res.Found {
					e.out.fail("epoch %d batch %d: found %v, err %v", epoch, j, res.Found, err)
					continue
				}
				e.out.measured(tr, end.Sub(start))
				ss.suppressed = res.Suppressed
				if tr {
					traced++
				} else {
					e.out.allocMiB = append(e.out.allocMiB, float64(a1-a0)/mib)
				}
			}
			if err := applyToLedger(mirror, b); err != nil {
				return err
			}
			batchesDone++
		}
		// The session's promise (DESIGN.md section 14): the published node,
		// evaluated afresh on the live rows, satisfies with the suppression
		// the last republish reported. It need not be the node a cold
		// Samarati finds: a repair ascent may settle on a higher ancestor.
		snap, err := mirror.Snapshot()
		if err != nil {
			return err
		}
		for _, ss := range sessions {
			if ss.rec != nil {
				sum.add(ss.rec.Snapshot(), 1)
				sum.add(ss.start, -1)
			}
			node := ss.s.Published()
			supp, ok, err := evaluate(m, snap, node, cfg)
			e.out.check(err == nil && ok && supp == ss.suppressed,
				"epoch %d: published %v evaluates afresh to satisfied=%v with %d suppressed (session said %d): %v",
				epoch, node, ok, supp, ss.suppressed, err)
		}
	}
	e.out.rssMiB = peakRSSMiB()

	if e.opt.trace {
		spans := e.spans.all()
		apply, repub := durationsMs(spans, "search.apply"), durationsMs(spans, "search.republish")
		e.out.layers["search.apply_ms_p50"] = quantile(apply, 0.5)
		e.out.layers["search.apply_ms_p99"] = quantile(apply, 0.99)
		e.out.layers["search.republish_ms_p50"] = quantile(repub, 0.5)
		e.out.layers["search.republish_ms_p99"] = quantile(repub, 0.99)
		e.out.layers["setup.search.base-group-by_ms"] = median(groupBy)
		sum.fill(e.out.layers, traced, m.Lattice().Size())
		e.out.layers["runtime.live_heap_mib"] = liveHeapMiB()
	}
	runtime.KeepAlive(sessions)
	return nil
}

// applyToLedger mirrors one delta batch into a plain ledger, the
// bench-side record of the live rows the epoch check evaluates.
func applyToLedger(led *table.Ledger, b stream.Batch) error {
	for _, id := range b.Retire {
		if err := led.Retire(id); err != nil {
			return err
		}
	}
	for _, cells := range b.Append {
		if _, err := led.AppendText(cells); err != nil {
			return err
		}
	}
	return nil
}

// evaluate masks tbl at node from scratch — generalize, suppress within
// the budget — and checks the configured property on the result,
// returning the suppressed count and whether it holds.
func evaluate(m *generalize.Masker, tbl *table.Table, node lattice.Node, cfg search.Config) (int, bool, error) {
	g, err := m.Apply(tbl, node)
	if err != nil {
		return 0, false, err
	}
	masked, supp, within, err := m.SuppressWithin(g, cfg.K, cfg.MaxSuppress)
	if err != nil || !within {
		return supp, false, err
	}
	v, err := core.Check(masked, cfg.QIs, cfg.Confidential, cfg.P, cfg.K)
	return supp, err == nil && v.Satisfied, err
}

// phaseSelfMs reads one phase's self time off a report.
func phaseSelfMs(r *obs.Report, phase string) float64 {
	if r == nil {
		return 0
	}
	for _, p := range r.Phases {
		if p.Phase == phase {
			return float64(p.SelfNs) / 1e6
		}
	}
	return 0
}
