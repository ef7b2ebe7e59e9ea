package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"psk"
)

// obsFlags are the observability flags. pskanon and pskcheck register
// all eight (registerObsFlags): -stats prints the human-readable report
// to stderr, -metrics-json writes the report as JSON, -trace streams
// one JSONL event per evaluated lattice node to a file, -obs-listen
// serves the live observatory (/metrics, /progress, /healthz,
// /debug/pprof) over HTTP while the run is in flight, and
// -explain/-explain-json render the trace-driven audit (per-level prune
// attribution, budget timeline) after the run. pskexp registers only
// -stats, -metrics-json and -trace (registerReportFlags), which its
// telemetry experiment reads; there -metrics-json writes the
// experiment's strategy map.
type obsFlags struct {
	stats       bool
	trace       string
	metricsJSON string
	obsListen   string
	obsSample   time.Duration
	obsLinger   time.Duration
	explain     bool
	explainJSON string

	rec       *psk.Recorder
	tracer    *psk.Tracer
	traceFile *os.File
	// tracePath is the file the tracer writes: the -trace flag, or a
	// temp file created because -explain needs a trace the user didn't
	// ask to keep (traceTemp marks it for removal on close).
	tracePath string
	traceTemp bool
	sampler   *psk.Sampler
	server    *psk.ObsServer
}

// registerReportFlags registers the three flags that write a finished
// run's telemetry: -stats, -metrics-json and -trace.
func registerReportFlags(fs *flag.FlagSet) *obsFlags {
	of := &obsFlags{}
	fs.BoolVar(&of.stats, "stats", false, "print a telemetry report (node verdicts, phase times, cache stats) to stderr")
	fs.StringVar(&of.trace, "trace", "", "write a JSONL trace (one event per evaluated lattice node) to this file")
	fs.StringVar(&of.metricsJSON, "metrics-json", "", "write the telemetry report as JSON to this file")
	return of
}

// registerObsFlags registers the report flags plus the live observatory
// and the trace-driven audit.
func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	of := registerReportFlags(fs)
	fs.StringVar(&of.obsListen, "obs-listen", "", "serve the live observatory on this address while the run is in flight: /metrics, /progress, /healthz, /debug/pprof (e.g. 127.0.0.1:6060; :0 picks a port, printed to stderr)")
	fs.DurationVar(&of.obsSample, "obs-sample", 250*time.Millisecond, "sampling interval of the /progress time series (with -obs-listen)")
	fs.DurationVar(&of.obsLinger, "obs-linger", 0, "after finishing, keep the observatory up until the final report is scraped or this long elapses (with -obs-listen; lets an external poller read the final /metrics)")
	fs.BoolVar(&of.explain, "explain", false, "print a trace-driven audit to stderr after the run: per-lattice-level prune attribution, budget timeline, cache/rollup efficiency")
	fs.StringVar(&of.explainJSON, "explain-json", "", "write the -explain audit as JSON to this file")
	return of
}

func (of *obsFlags) active() bool {
	return of.stats || of.trace != "" || of.metricsJSON != "" ||
		of.obsListen != "" || of.explain || of.explainJSON != ""
}

// wantExplain reports whether an audit must be produced after the run.
func (of *obsFlags) wantExplain() bool { return of.explain || of.explainJSON != "" }

// setup builds the recorder, tracer, sampler and live server the flags
// request; the caller must defer close. Everything stays nil when no
// flag is active, keeping the search on its zero-cost path.
func (of *obsFlags) setup(stderr io.Writer) error {
	if !of.active() {
		return nil
	}
	of.rec = psk.NewRecorder()
	of.tracePath = of.trace
	if of.tracePath == "" && of.wantExplain() {
		// The audit is trace-driven; buy a trace the user didn't ask to
		// keep and remove it on close.
		f, err := os.CreateTemp("", "psk-trace-*.jsonl")
		if err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		of.tracePath = f.Name()
		of.traceTemp = true
		of.traceFile = f
		of.tracer = psk.NewTracer(f)
	} else if of.tracePath != "" {
		f, err := os.Create(of.tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		of.traceFile = f
		of.tracer = psk.NewTracer(f)
	}
	if of.obsListen != "" {
		of.sampler = psk.NewSampler(of.rec, of.obsSample, 0)
		of.sampler.Start()
		srv, err := psk.NewObsServer(of.obsListen, of.rec, of.sampler)
		if err != nil {
			return err
		}
		of.server = srv
		fmt.Fprintf(stderr, "observatory: listening on http://%s (/metrics /progress /healthz /debug/pprof)\n", srv.Addr())
	}
	return nil
}

// report emits the collected telemetry: the human block on -stats, the
// JSON file on -metrics-json, the trace-driven audit on -explain, and
// the frozen final /metrics payload on -obs-listen. Pass the search's
// own snapshot when one exists (it was taken at search completion); a
// nil report falls back to a fresh snapshot of the recorder.
func (of *obsFlags) report(rep *psk.Report, stderr io.Writer) error {
	if rep == nil {
		rep = of.rec.Snapshot()
	}
	if rep == nil {
		return nil
	}
	if of.stats {
		fmt.Fprintf(stderr, "--- telemetry ---\n%s", rep.String())
	}
	if of.metricsJSON != "" {
		if err := writeJSON(of.metricsJSON, rep); err != nil {
			return err
		}
	}
	// Freeze /metrics to the exact report written above, so a scrape
	// after completion and the -metrics-json file agree byte for byte.
	if of.server != nil {
		of.sampler.Poll() // final sample at the completed totals
		of.server.Finalize(rep)
	}
	if of.wantExplain() {
		if err := of.runExplain(rep, stderr); err != nil {
			return err
		}
	}
	return nil
}

// runExplain flushes the trace and renders the audit against rep.
func (of *obsFlags) runExplain(rep *psk.Report, stderr io.Writer) error {
	if of.tracer == nil {
		return fmt.Errorf("explain: no trace collected")
	}
	if err := of.tracer.Flush(); err != nil {
		return fmt.Errorf("explain: %w", err)
	}
	f, err := os.Open(of.tracePath)
	if err != nil {
		return fmt.Errorf("explain: %w", err)
	}
	defer f.Close()
	audit, err := psk.ExplainTrace(f, rep)
	if err != nil {
		return err
	}
	if of.explain {
		fmt.Fprintf(stderr, "--- explain ---\n")
		if err := audit.WriteText(stderr); err != nil {
			return err
		}
	}
	if of.explainJSON != "" {
		if err := writeJSON(of.explainJSON, audit); err != nil {
			return fmt.Errorf("explain-json: %w", err)
		}
	}
	return nil
}

// close flushes and closes the trace stream, stops the sampler and
// shuts the live server down (after the -obs-linger grace period when
// a final report is waiting to be scraped). Call it after the search,
// before reading the trace file.
func (of *obsFlags) close(stderr io.Writer) {
	if of.tracer != nil {
		if err := of.tracer.Flush(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
		}
	}
	if of.traceFile != nil {
		if err := of.traceFile.Close(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
		}
		of.traceFile = nil
	}
	if of.traceTemp && of.tracePath != "" {
		os.Remove(of.tracePath)
		of.tracePath = ""
	}
	of.sampler.Stop()
	if of.server != nil {
		if of.obsLinger > 0 && of.server.Finalized() {
			of.server.WaitScraped(of.obsLinger)
		}
		of.server.Close()
		of.server = nil
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics-json: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("metrics-json: %w", err)
	}
	return f.Close()
}
