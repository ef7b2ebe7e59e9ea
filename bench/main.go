// Command pskbench is the end-to-end benchmark of the psk module. Each
// workload drives the program only through its public entry points —
// cli.Anon, table CSV I/O, the search strategies, incremental sessions
// and the serve HTTP handler — on inputs generated from -seed, checks
// every output, and prints one JSON result line:
//
//	bash bench/run.sh --workload release --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown from spans around each
// public call plus the search telemetry recorder. -out appends a run
// record (host stamp, raw samples, quartiles) to a JSON file, and
// -compare judges two such files against the bounds in BENCHMARK.json.
// See README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"psk/internal/config"
	"psk/internal/dataset"
)

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Args[1:]))
	}
	os.Exit(cmdMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options size one benchmark run.
type options struct {
	seed    int64
	seconds float64 // measured wall time
	trace   bool
	work    string    // directory for generated inputs, outputs and span files
	rows    int       // Adult rows of the release, frontier and republish inputs
	setups  int       // set-up repetitions; setup_s is their median
	epoch   int       // delta batches per republish epoch
	svcRows int       // rows of each service dataset
	rates   []float64 // service ladder rungs of a traced run, jobs/s
	rung    float64   // seconds per ladder rung
}

// populationSeed draws the Adult populations every run shares; the run's
// seed shuffles their rows and drives every other random choice.
const populationSeed = 2006

func defaultOptions() options {
	return options{
		seed:    2006,
		seconds: 20,
		work:    ".bench_build",
		rows:    2 * dataset.AdultRows,
		setups:  15,
		epoch:   1024,
		svcRows: 5000,
		rates:   []float64{20, 40, 80, 160, 320},
		rung:    2.5,
	}
}

type workload struct {
	name string
	run  func(*env) error
}

var workloads = []workload{
	{"release", runRelease},
	{"frontier", runFrontier},
	{"republish", runRepublish},
	{"service", runService},
}

func cmdMain(args []string, stdout, stderr io.Writer) int {
	opt := defaultOptions()
	fs := flag.NewFlagSet("pskbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: release, frontier, republish, service or all")
	fs.Int64Var(&opt.seed, "seed", opt.seed, "seed every input is generated from")
	fs.Float64Var(&opt.seconds, "seconds", opt.seconds, "measured wall time per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass, which reports the per-layer metrics")
	out := fs.String("out", "", "append the run record (host, raw samples, quartiles) to this JSON file")
	compare := fs.Bool("compare", false, "judge two run-record files: -compare base.json head.json")
	manifest := fs.String("manifest", "BENCHMARK.json", "manifest holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: pskbench -compare base.json head.json")
			return 2
		}
		return compareFiles(*manifest, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || opt.seconds <= 0 {
		fmt.Fprintln(stderr, "pskbench: unexpected arguments; see -h")
		return 2
	}
	opt.trace = *trace == 1
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "pskbench: unknown workload %q\n", *name)
		return 2
	}
	status := 0
	for _, w := range selected {
		rec, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(stderr, "pskbench: %s: %v\n", w.name, err)
			return 1
		}
		rec.print(stderr)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(stderr, "pskbench: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fmt.Fprintf(stderr, "pskbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

// env is one workload run in progress.
type env struct {
	opt   options
	dir   string      // this run's scratch directory, removed at the end
	job   *config.Job // the Table 7 job, suppression budget rows/100
	spans *spanLog    // nil unless traced
	ref   *reference
	out   outcome
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	setupS            []float64
	opMs, tracedMs    []float64 // op latencies, untraced and traced
	allocMiB          []float64 // allocated per untraced op
	rssMiB            float64
	layers            map[string]float64
}

// op counts one attempted op; check counts one verification.
func (o *outcome) op() { o.attempted++ }
func (o *outcome) check(ok bool, format string, a ...any) {
	o.attempted++
	if !ok {
		o.fail(format, a...)
	}
}

// fail records a failed op or verification.
func (o *outcome) fail(format string, a ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, a...))
	}
}

// measured adds one op latency to the traced or untraced series.
func (o *outcome) measured(traced bool, d time.Duration) {
	ms := float64(d) / 1e6
	if traced {
		o.tracedMs = append(o.tracedMs, ms)
	} else {
		o.opMs = append(o.opMs, ms)
	}
}

// deadline bounds a measured loop: at least min ops (two when traced, so
// both an untraced and a traced op run), then until the time is up.
type deadline struct {
	end time.Time
	min int
}

func (e *env) deadline() deadline {
	min := 1
	if e.opt.trace {
		min = 2
	}
	return deadline{time.Now().Add(time.Duration(e.opt.seconds * float64(time.Second))), min}
}

func (d deadline) more(done int) bool { return done < d.min || time.Now().Before(d.end) }

// traced reports whether op i is a traced one: traced runs alternate, so
// host drift hits traced and untraced ops alike.
func (e *env) traced(i int) bool { return e.opt.trace && i%2 == 1 }

// tracer returns the span log for op i, nil for untraced ops.
func (e *env) tracer(i int) *spanLog {
	if e.traced(i) {
		return e.spans
	}
	return nil
}

func runWorkload(w workload, opt options) (*record, error) {
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	job, err := adultJob(opt.rows)
	if err != nil {
		return nil, err
	}
	e := &env{opt: opt, dir: dir, job: job}
	e.out.layers = make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		e.out.layers[m.name] = 0
	}
	if opt.trace {
		e.spans = &spanLog{}
	}
	if e.ref, err = startReference(); err != nil {
		return nil, err
	}
	err = w.run(e)
	if stopErr := e.ref.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	rec := e.record(w.name)
	if opt.trace {
		spans := e.spans.all()
		if err := checkNesting(spans); err != nil {
			rec.Correct = false
			rec.Problems = append(rec.Problems, err.Error())
		}
		rec.SpansFile = filepath.Join(opt.work, fmt.Sprintf("spans-%s-%d.json", w.name, opt.seed))
		raw, err := json.Marshal(spans)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(rec.SpansFile, raw, 0o644); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -out stores it.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Host      host                 `json:"host"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]value     `json:"metrics"`
	Samples   map[string][]float64 `json:"samples"`
	Summary   map[string]summary   `json:"summary"`
	SpansFile string               `json:"spans_file,omitempty"`
}

// host stamps where and from what source a run was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func hostStamp() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

func (e *env) record(name string) *record {
	o := &e.out
	rec := &record{
		Workload: name, Seed: e.opt.seed, Seconds: e.opt.seconds, Trace: e.opt.trace,
		Host: hostStamp(), Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Problems: o.problems, Metrics: make(map[string]value),
		Samples: map[string][]float64{"setup_s": o.setupS, "op_ms": o.opMs, "ref_ms": e.ref.ms, "alloc_mib": o.allocMiB},
		Summary: make(map[string]summary),
	}
	scale := e.ref.loopScale()
	if e.opt.trace {
		rec.Samples["traced_op_ms"] = o.tracedMs
		o.layers["bench.raw_op_p50_ms"] = quantile(o.opMs, 0.5)
		o.layers["bench.raw_op_p90_ms"] = quantile(o.opMs, 0.9)
		o.layers["bench.ref_ms"] = median(e.ref.ms)
		o.layers["bench.span_coverage"] = coverage(e.spans.all())
		if base := median(o.opMs); base > 0 {
			o.layers["bench.trace_overhead_pct"] = (median(o.tracedMs)/base - 1) * 100
		}
		for _, m := range perLayer {
			v := o.layers[m.name]
			if m.unit == "ms" && !strings.HasPrefix(m.name, "bench.") {
				v *= scale
			}
			rec.Metrics[m.name] = value{v, m.unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":      median(o.setupS) * e.ref.setupScale(),
			"op_mean_ms":   mean(o.opMs) * scale,
			"op_p90_ms":    quantile(o.opMs, 0.9) * scale,
			"peak_rss_mib": o.rssMiB,
			// The median, because sync.Pool arenas make an op that follows
			// a collection allocate more than its neighbours.
			"alloc_mib_per_op": median(o.allocMiB),
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = value{vals[m.name], m.unit}
		}
	}
	for k, xs := range rec.Samples {
		rec.Summary[k] = summarize(xs)
	}
	return rec
}

// print writes the human-readable form of a run to w.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d ops attempted, %d failed, %d ops timed\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, len(r.Samples["op_ms"])+len(r.Samples["traced_op_ms"]))
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// runFile is the -out document: every run appended so far.
type runFile struct {
	Runs []*record `json:"runs"`
}

func readRuns(path string) (*runFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendRecord(path string, rec *record) error {
	f, err := readRuns(path)
	if os.IsNotExist(err) {
		f, err = &runFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// adultJobJSON is the paper's Table 7 job: the Adult QIs with their
// hierarchies (a 96-node lattice of height 9), k=10, p=2.
//
//go:embed testdata/adult.job.json
var adultJobJSON []byte

// adultJob is the committed Table 7 job with its suppression budget set
// to rows/100, as the paper's experiments set it.
func adultJob(rows int) (*config.Job, error) {
	job, err := config.Parse(adultJobJSON)
	if err != nil {
		return nil, fmt.Errorf("testdata/adult.job.json: %w", err)
	}
	job.MaxSuppress = rows / 100
	return job, nil
}

func writeJob(path string, job *config.Job) error {
	raw, err := json.Marshal(job)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
