package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"psk/internal/core"
	"psk/internal/generalize"
	"psk/internal/hierarchy"
	"psk/internal/table"
)

// runRelease is what a publisher runs: one op is a fresh pskanon process
// (this executable re-run as cli.Anon) turning the Adult CSV into the
// released CSV under the Table 7 job. CSV parse and write and the
// utility report dominate; the search is about a fifth. A fresh process
// per op keeps one op's heap from carrying into the next.
func runRelease(e *env) error {
	in := filepath.Join(e.dir, "adult.csv")
	jobPath := filepath.Join(e.dir, "adult.job.json")
	if err := writeJob(jobPath, e.job); err != nil {
		return err
	}
	// Set-up is writing the input CSV with the program's table writer,
	// repeated; generating the rows is benchmark work and not timed. Only
	// the children's memory is measured, so the table may live here.
	tbl, err := genAdult(e.opt.rows, populationSeed, e.opt.seed)
	if err != nil {
		return err
	}
	for i := 0; i < e.opt.setups; i++ {
		if err := e.ref.sample(); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		if err := tbl.WriteCSVFile(in); err != nil {
			return err
		}
		e.out.setupS = append(e.out.setupS, time.Since(start).Seconds())
	}
	tbl = nil
	runtime.GC()
	if err := e.ref.setupDone(); err != nil {
		return err
	}
	_, m, err := e.masker()
	if err != nil {
		return err
	}

	out := filepath.Join(e.dir, "released.csv")
	var (
		want   [sha256.Size]byte
		haveOp = -1
		rss    []float64
		sum    reportSum
		traced int
	)
	dl := e.deadline()
	for i := 0; dl.more(i); i++ {
		tr := e.traced(i)
		mode := "release"
		if tr {
			mode = "release-traced"
		}
		if err := e.ref.due(); err != nil {
			return err
		}
		// A stale output must not pass for this op's.
		if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
			return err
		}
		e.out.op()
		res, err := runChild(mode, "-in", in, "-job", jobPath, "-out", out)
		if err != nil {
			return err
		}
		if res.exit != 0 {
			e.out.fail("op %d (%s): exit %d: %s", i, mode, res.exit, res.report.Error)
			continue
		}
		e.out.measured(tr, res.wall())
		if tr {
			id := e.spans.begin(i, 0, "release", res.start)
			e.spans.finish(id, res.end)
			e.spans.adopt(i, id, res.report.Spans)
			sum.add(res.report.Report, 1)
			traced++
		} else {
			e.out.allocMiB = append(e.out.allocMiB, float64(res.report.AllocBytes)/mib)
			rss = append(rss, float64(res.maxRSS)/1024)
		}
		h, err := fileHash(out)
		switch {
		case err != nil:
			e.out.fail("op %d: %v", i, err)
		case haveOp < 0:
			want, haveOp = h, i
		case h != want:
			e.out.fail("op %d (%s): released CSV differs from op %d's", i, mode, haveOp)
		}
	}
	e.out.rssMiB = median(rss)

	// The last release, read back, must be p-sensitive k-anonymous.
	masked, err := table.ReadCSVFile(out, nil)
	e.out.check(err == nil, "read back the release: %v", err)
	if err == nil {
		v, err := core.Check(masked, e.job.QuasiIdentifiers, e.job.Confidential, e.job.P, e.job.K)
		e.out.check(err == nil && v.Satisfied, "release is not %d-sensitive %d-anonymous: %v (%v)",
			e.job.P, e.job.K, v.Reason, err)
	}

	if e.opt.trace {
		spans := e.spans.all()
		for _, name := range []string{"table.read_csv", "table.write_csv", "config.prepare", "loss.measure_utility", "search.call"} {
			e.out.layers[name+"_ms"] = perOpMs(spans, name, traced)
		}
		sum.fill(e.out.layers, traced, m.Lattice().Size())
	}
	return nil
}

// genInput writes the run's Adult CSV from a generator child.
func (e *env) genInput(path string) (childResult, error) {
	res, err := runChild("gen", "-rows", strconv.Itoa(e.opt.rows), "-seed", strconv.FormatInt(e.opt.seed, 10), "-out", path)
	if err == nil && res.exit != 0 {
		err = fmt.Errorf("generate %s: %s", path, res.report.Error)
	}
	return res, err
}

// masker builds the job's hierarchies and the masker over them.
func (e *env) masker() (*hierarchy.Set, *generalize.Masker, error) {
	hs, err := e.job.BuildHierarchies()
	if err != nil {
		return nil, nil, err
	}
	m, err := generalize.NewMasker(e.job.QuasiIdentifiers, hs)
	return hs, m, err
}

func fileHash(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
