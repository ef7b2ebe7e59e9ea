package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"psk"
	"psk/internal/cli"
	"psk/internal/config"
	"psk/internal/dataset"
	"psk/internal/obs"
	"psk/internal/table"
)

// childEnv selects a child mode when this executable re-runs itself:
// "gen" writes a generated input file, "release" runs pskanon's entry
// point, "release-traced" runs the same public calls with spans.
const childEnv = "PSKBENCH_CHILD"

// childReport is the one JSON line a child prints on stdout.
type childReport struct {
	AllocBytes uint64      `json:"alloc_bytes"`
	Error      string      `json:"error,omitempty"`
	Spans      []span      `json:"spans,omitempty"`
	Report     *obs.Report `json:"report,omitempty"`
}

// childResult is what the parent observed of one child run.
type childResult struct {
	report     childReport
	exit       int
	start, end time.Time
	maxRSS     int64 // KiB
	stderr     string
}

func (r childResult) wall() time.Duration { return r.end.Sub(r.start) }

// runChild runs this executable in a child mode and waits for it. The
// wall time spans start to exit, as a user running the tool would see.
func runChild(mode string, args ...string) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	res := childResult{start: time.Now()}
	err = cmd.Run()
	res.end = time.Now()
	res.stderr = stderr.String()
	if cmd.ProcessState == nil {
		return res, fmt.Errorf("start %s child: %w", mode, err)
	}
	res.exit = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.maxRSS = ru.Maxrss
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res.report); err != nil {
		return res, fmt.Errorf("%s child (exit %d) printed no report: %v; stderr: %s", mode, res.exit, err, res.stderr)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// childMain runs one child mode and returns its exit code, which follows
// the CLI convention (0 released, 1 no release, 2 input error).
func childMain(mode string, args []string) int {
	var (
		rep    childReport
		err    error
		stderr bytes.Buffer
	)
	switch mode {
	case "gen":
		err = genChild(args)
	case "release":
		err = cli.Anon(args, io.Discard, &stderr)
	case "release-traced":
		rep, err = tracedRelease(args)
	case "ref":
		if err := refChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.AllocBytes = ms.TotalAlloc
	if err != nil {
		rep.Error = err.Error()
		fmt.Fprintln(os.Stderr, err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 2
	}
	return cli.ExitCode(err)
}

// genChild writes the synthetic Adult CSV. It runs in its own process
// so that generating the input never counts toward the memory of the
// process that measures the program.
func genChild(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	rows := fs.Int("rows", 0, "rows to generate")
	seed := fs.Int64("seed", 0, "generator seed")
	out := fs.String("out", "", "CSV file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tbl, err := genAdult(*rows, populationSeed, *seed)
	if err != nil {
		return err
	}
	return tbl.WriteCSVFile(*out)
}

// genAdult builds a synthetic Adult table — the 48,842-row shape
// replicated when rows is a multiple of it, independent draws otherwise —
// from a fixed population seed, with its rows shuffled by seed. The
// population stays fixed so that a workload does the same work under
// every seed (which lattice nodes satisfy, how many masked tables are
// built); a fresh draw per seed moved allocation by a fifth between
// seeds, which would hide a regression as large.
func genAdult(rows int, population, seed int64) (*table.Table, error) {
	var tbl *table.Table
	var err error
	if rows >= dataset.AdultRows && rows%dataset.AdultRows == 0 {
		tbl, err = dataset.GenerateScaled(rows/dataset.AdultRows, population)
	} else {
		tbl, err = dataset.Generate(rows, population)
	}
	if err != nil {
		return nil, err
	}
	return tbl.Gather(rand.New(rand.NewSource(seed)).Perm(rows))
}

// tracedRelease makes the public calls cli.Anon makes for a plain
// release (no policy flags, serial search) with a span around each, so
// the traced op can be split by layer. Its output must be byte-identical
// to cli.Anon's.
func tracedRelease(args []string) (childReport, error) {
	var rep childReport
	fs := flag.NewFlagSet("release-traced", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV")
	jobPath := fs.String("job", "", "job JSON")
	out := fs.String("out", "", "output CSV")
	if err := fs.Parse(args); err != nil {
		return rep, err
	}
	spans := &spanLog{}
	var (
		job    *config.Job
		schema table.Schema
		hs     *psk.Hierarchies
		data   *psk.Table
		res    *psk.Result
	)
	err := spans.call(0, 0, "config.prepare", func() error {
		var err error
		if job, err = config.Load(*jobPath); err != nil {
			return err
		}
		header, err := readHeader(*in)
		if err != nil {
			return err
		}
		if schema, err = job.Schema(header); err != nil {
			return err
		}
		hs, err = job.BuildHierarchies()
		return err
	})
	if err != nil {
		return rep, &cli.InputError{Err: err}
	}
	if err := spans.call(0, 0, "table.read_csv", func() (err error) {
		data, err = psk.ReadCSVFile(*in, &schema)
		return err
	}); err != nil {
		return rep, &cli.InputError{Err: err}
	}
	rec := obs.NewRecorder()
	cfg := psk.Config{
		QuasiIdentifiers: job.QuasiIdentifiers,
		Confidential:     job.Confidential,
		Hierarchies:      hs,
		K:                job.K,
		P:                job.P,
		MaxSuppress:      job.MaxSuppress,
		Recorder:         rec,
	}
	if err := spans.call(0, 0, "search.call", func() (err error) {
		res, err = psk.Anonymize(data, cfg)
		return err
	}); err != nil {
		return rep, err
	}
	rep.Report = res.Report
	if !res.Found {
		return rep, fmt.Errorf("no generalization found (%s)", res.StopReason)
	}
	if err := spans.call(0, 0, "loss.measure_utility", func() error {
		_, err := psk.MeasureUtility(data, res.Masked, cfg, res.Node)
		return err
	}); err != nil {
		return rep, err
	}
	err = spans.call(0, 0, "table.write_csv", func() error { return res.Masked.WriteCSVFile(*out) })
	rep.Spans = spans.all()
	return rep, err
}

// readHeader reads a CSV file's header row the way cli.Anon does.
func readHeader(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.TrimLeadingSpace = true
	return r.Read()
}
