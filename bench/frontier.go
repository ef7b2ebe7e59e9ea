package main

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"time"

	"psk/internal/obs"
	"psk/internal/search"
	"psk/internal/table"
)

// runFrontier is the search alone: one op is search.AllMinimal with the
// Pareto frontier enabled over the Adult table already in memory. Roll-up,
// materialize and frontier scoring dominate; nothing is parsed or
// written, so a search-engine change shows here and barely in release.
func runFrontier(e *env) error {
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
	// Set-up is loading the CSV into the columnar table, repeated.
	var tbl *table.Table
	var readMs []float64
	for i := 0; i < e.opt.setups; i++ {
		tbl = nil
		if err := e.ref.sample(); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		if tbl, err = table.ReadCSVFile(in, &schema); err != nil {
			return err
		}
		d := time.Since(start)
		e.out.setupS = append(e.out.setupS, d.Seconds())
		readMs = append(readMs, float64(d)/1e6)
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
		Frontier:      search.FrontierConfig{Enabled: true},
	}

	var (
		first  []search.FrontierEntry
		want   string
		sum    reportSum
		traced int
	)
	if err := e.ref.setupDone(); err != nil {
		return err
	}
	runtime.GC()
	dl := e.deadline()
	for i := 0; dl.more(i); i++ {
		if err := e.ref.due(); err != nil {
			return err
		}
		tr := e.traced(i)
		c := cfg
		if tr {
			c.Recorder = obs.NewRecorder()
		}
		e.out.op()
		a0 := allocBytes()
		start := time.Now()
		op := e.tracer(i).begin(i, 0, "frontier", start)
		var res search.ExhaustiveResult
		err := e.tracer(i).call(i, op, "search.call", func() (err error) {
			res, err = search.AllMinimal(tbl, c)
			return err
		})
		end := time.Now()
		e.tracer(i).finish(op, end)
		a1 := allocBytes()
		if err != nil || res.StopReason != search.StopDone || len(res.Frontier) == 0 {
			e.out.fail("op %d: frontier of %d members, stop %s, err %v", i, len(res.Frontier), res.StopReason, err)
			continue
		}
		e.out.measured(tr, end.Sub(start))
		if tr {
			sum.add(res.Report, 1)
			traced++
		} else {
			e.out.allocMiB = append(e.out.allocMiB, float64(a1-a0)/mib)
		}
		key, err := json.Marshal(res.Frontier)
		switch {
		case err != nil:
			e.out.fail("op %d: %v", i, err)
		case first == nil:
			first, want = res.Frontier, string(key)
		case string(key) != want:
			e.out.fail("op %d: frontier differs from the first op's", i)
		}
	}
	e.out.rssMiB = peakRSSMiB()

	// Every frontier member, masked from scratch, must satisfy the policy
	// with the suppression the search reported.
	for _, f := range first {
		supp, ok, err := evaluate(m, tbl, f.Node, cfg)
		e.out.check(err == nil && ok && supp == f.Suppressed,
			"member %v evaluates afresh to satisfied=%v with %d suppressed (search said %d): %v",
			f.Node, ok, supp, f.Suppressed, err)
	}

	if e.opt.trace {
		e.out.layers["search.call_ms"] = perOpMs(e.spans.all(), "search.call", traced)
		e.out.layers["setup.table.read_csv_ms"] = median(readMs)
		sum.fill(e.out.layers, traced, m.Lattice().Size())
		e.out.layers["runtime.live_heap_mib"] = liveHeapMiB()
	}
	runtime.KeepAlive(tbl)
	return nil
}
