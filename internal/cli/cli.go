// Package cli implements the command-line tools as testable functions:
// each binary under cmd/ is a thin wrapper over one entry point here.
// All entry points take an argument vector and explicit output streams
// and return an error instead of exiting, so the full CLI surface is
// covered by ordinary unit tests.
package cli

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"psk"
	"psk/internal/config"
	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/stream"
	"psk/internal/table"
)

// policyFlags are the optional policy-composition flags shared by
// pskcheck and pskanon. Any active flag extends the target property:
// the base p-sensitive k-anonymity is conjoined with the requested
// l-diversity / t-closeness / alpha constraints over the confidential
// attributes, and the tools exit non-zero when the composition is
// violated (pskcheck) or unachievable (pskanon).
type policyFlags struct {
	ldiv   int
	tclose float64
	alpha  float64
}

func registerPolicyFlags(fs *flag.FlagSet) *policyFlags {
	pf := &policyFlags{}
	fs.IntVar(&pf.ldiv, "ldiv", 0,
		"also require distinct l-diversity with this l on every confidential attribute (0 = off; violation exits non-zero)")
	fs.Float64Var(&pf.tclose, "tclose", -1,
		"also require t-closeness with this t on every confidential attribute (negative = off; violation exits non-zero)")
	fs.Float64Var(&pf.alpha, "alpha", 0,
		"also cap each confidential value's within-group frequency at alpha, i.e. (p,alpha)-sensitivity (0 = off; violation exits non-zero)")
	return pf
}

// compose builds the composite target policy (core.Composite), or nil
// when no policy flag is active. A negative -tclose is the flag's "off";
// any other out-of-range value is an input error.
func (pf *policyFlags) compose(confs []string, p, k int) (psk.Policy, error) {
	var t *float64
	if pf.tclose >= 0 {
		t = &pf.tclose
	}
	pol, err := core.Composite(confs, p, k, pf.ldiv, t, pf.alpha)
	return pol, inputErr(err)
}

// Anon implements pskanon: anonymize a CSV per a JSON job description.
func Anon(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pskanon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "input CSV file (header row required)")
		jobPath   = fs.String("job", "", "anonymization job JSON")
		out       = fs.String("out", "", "output CSV file (default: stdout)")
		algorithm = fs.String("algorithm", psk.AlgorithmSamarati.String(), "search algorithm: samarati, bottomup, exhaustive, allminimal, incognito")
		timeout   = fs.Duration("timeout", 0, "wall-clock budget for the search; on expiry the best result found so far is used (0 = no limit)")
		maxNodes  = fs.Int64("max-nodes", 0, "lattice-node evaluation budget for the search (0 = no limit)")
		deltas    = fs.String("stream", "", "JSONL delta file (adultgen -stream format): anonymize incrementally, republishing after every batch, and write the final masked table")
		frontier  = fs.Bool("frontier", false, "print the utility-aware Pareto frontier over satisfying nodes as a table on stdout (the masked CSV is then only written with -out)")
		frontJSON = fs.Bool("frontier-json", false, "like -frontier but emit the frontier as a JSON array")
		workers   = fs.Int("workers", 0, "worker pool size for lattice evaluation (0 = one per CPU)")
	)
	pf := registerPolicyFlags(fs)
	prof := registerProfileFlags(fs)
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *jobPath == "" {
		fs.Usage()
		return fmt.Errorf("-in and -job are required")
	}
	wantFrontier := *frontier || *frontJSON
	if wantFrontier && *deltas != "" {
		return fmt.Errorf("-frontier/-frontier-json cannot be combined with -stream")
	}
	stopProf, err := prof.start(stderr)
	if err != nil {
		return err
	}
	defer stopProf()
	if err := of.setup(stderr); err != nil {
		return err
	}
	defer of.close(stderr)

	// Loading and validation: failures here are input errors (exit 2),
	// not verdicts — the data was never judged.
	job, err := config.Load(*jobPath)
	if err != nil {
		return inputErr(err)
	}
	header, err := csvHeader(*in)
	if err != nil {
		return inputErr(err)
	}
	schema, err := job.Schema(header)
	if err != nil {
		return inputErr(err)
	}
	data, err := psk.ReadCSVFile(*in, &schema)
	if err != nil {
		return inputErr(err)
	}
	hs, err := job.BuildHierarchies()
	if err != nil {
		return inputErr(err)
	}

	cfg := psk.Config{
		QuasiIdentifiers: job.QuasiIdentifiers,
		Confidential:     job.Confidential,
		Hierarchies:      hs,
		K:                job.K,
		P:                job.P,
		MaxSuppress:      job.MaxSuppress,
		Budget:           psk.Budget{Deadline: *timeout, MaxNodes: *maxNodes},
		Workers:          *workers,
		Recorder:         of.rec,
		Tracer:           of.tracer,
		Frontier:         psk.FrontierConfig{Enabled: wantFrontier},
	}
	pol, err := pf.compose(job.Confidential, job.P, job.K)
	if err != nil {
		return err
	}
	cfg.Policy = pol
	if cfg.Algorithm, err = psk.ParseAlgorithm(*algorithm); err != nil {
		return inputErr(err)
	}
	if err := cfg.Algorithm.CheckQIs(len(job.QuasiIdentifiers)); err != nil {
		return inputErr(err)
	}

	if *deltas != "" {
		return anonStream(data, cfg, *deltas, *out, of, stdout, stderr)
	}

	res, err := psk.Anonymize(data, cfg)
	if err != nil {
		return err
	}
	if err := of.report(res.Report, stderr); err != nil {
		return err
	}
	if res.StopReason.Partial() {
		fmt.Fprintf(stderr, "warning: search stopped early (%s); the result reflects only the evaluated part of the lattice\n",
			res.StopReason)
	}
	if !res.Found {
		if res.StopReason.Partial() {
			return fmt.Errorf("no generalization found before the search stopped (%s); raise -timeout/-max-nodes to search the full lattice",
				res.StopReason)
		}
		if pol != nil {
			return fmt.Errorf("no generalization satisfies %s within %d suppressions", pol.Name(), job.MaxSuppress)
		}
		maxP, err := psk.MaxP(data, job.Confidential)
		if err == nil && job.P > maxP {
			return fmt.Errorf("no solution: p = %d exceeds maxP = %d (necessary condition 1)", job.P, maxP)
		}
		return fmt.Errorf("no generalization satisfies %d-sensitive %d-anonymity within %d suppressions",
			job.P, job.K, job.MaxSuppress)
	}

	if pol != nil {
		fmt.Fprintf(stderr, "policy: %s\n", pol.Name())
	}
	fmt.Fprintf(stderr, "node: %s (height %d)\n", res.Node, res.Node.Height())
	fmt.Fprintf(stderr, "rows: %d released, %d suppressed\n", res.Masked.NumRows(), res.Suppressed)
	if rep, err := psk.MeasureUtility(data, res.Masked, cfg, res.Node); err == nil {
		fmt.Fprintf(stderr, "utility: precision %.3f, discernibility %d, avg group ratio %.2f\n",
			rep.Precision, rep.Discernibility, rep.AvgGroupRatio)
	}
	if len(res.AllMinimal) > 1 {
		fmt.Fprintf(stderr, "all minimal nodes: %v\n", res.AllMinimal)
	}

	if wantFrontier {
		// Frontier mode owns stdout; the masked CSV is only written when
		// the caller named a file for it.
		fmt.Fprintf(stderr, "frontier: %d members\n", len(res.Frontier))
		if *frontJSON {
			if err := writeFrontierJSON(stdout, res.Frontier); err != nil {
				return err
			}
		} else if err := writeFrontierTable(stdout, res.Frontier); err != nil {
			return err
		}
		if *out != "" {
			return res.Masked.WriteCSVFile(*out)
		}
		return nil
	}

	if *out == "" {
		return res.Masked.WriteCSV(stdout)
	}
	return res.Masked.WriteCSVFile(*out)
}

// anonStream is pskanon's -stream mode: open an incremental session on
// the input table, absorb the delta file batch by batch with a
// republish after each, and write the final masked table. Per-batch
// verdict lines go to stderr; the CSV on stdout/-out reflects the live
// rows after the last batch.
func anonStream(data *psk.Table, cfg psk.Config, deltaPath, out string, of *obsFlags, stdout, stderr io.Writer) error {
	s, err := psk.OpenSession(data, cfg)
	if err != nil {
		return err
	}
	cols := s.Schema().Names()
	report := func(label string, res *psk.Result) {
		if res.Found {
			fmt.Fprintf(stderr, "%s: node %s, %d live rows, %d suppressed\n", label, res.Node, s.NumLive(), res.Suppressed)
		} else {
			fmt.Fprintf(stderr, "%s: no satisfying generalization (%d live rows)\n", label, s.NumLive())
		}
	}
	res, err := s.Republish()
	if err != nil {
		return err
	}
	report("initial", res)

	f, err := os.Open(deltaPath)
	if err != nil {
		return inputErr(err)
	}
	defer f.Close()
	r := stream.NewReader(f)
	for {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return inputErr(err)
		}
		if err := b.Validate(cols); err != nil {
			return inputErr(fmt.Errorf("%s line %d: %w", deltaPath, r.Line(), err))
		}
		if err := s.Apply(b.Append, b.Retire); err != nil {
			return inputErr(fmt.Errorf("%s line %d: %w", deltaPath, r.Line(), err))
		}
		if res, err = s.Republish(); err != nil {
			return err
		}
		report(fmt.Sprintf("batch %d", r.Line()), res)
	}

	if err := of.report(res.Report, stderr); err != nil {
		return err
	}
	if !res.Found {
		return fmt.Errorf("no generalization satisfies the property on the rows after the final batch")
	}
	mm, suppressed, err := s.Materialize()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "final: node %s, %d rows released, %d suppressed\n", s.Published(), mm.NumRows(), suppressed)
	if out == "" {
		return mm.WriteCSV(stdout)
	}
	return mm.WriteCSVFile(out)
}

// Check implements pskcheck: verify privacy properties or run SQL.
func Check(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pskcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in   = fs.String("in", "", "input CSV file (header row required)")
		qi   = fs.String("qi", "", "comma-separated quasi-identifier attributes")
		conf = fs.String("conf", "", "comma-separated confidential attributes")
		k    = fs.Int("k", 2, "k-anonymity parameter")
		p    = fs.Int("p", 2, "p-sensitivity parameter")
		sql  = fs.String("sql", "", "run this SQL query against the file (table name: T) and exit")
		verb = fs.Bool("violations", false, "list each violating QI-group")
	)
	pf := registerPolicyFlags(fs)
	prof := registerProfileFlags(fs)
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	stopProf, err := prof.start(stderr)
	if err != nil {
		return err
	}
	defer stopProf()
	if err := of.setup(stderr); err != nil {
		return err
	}
	defer of.close(stderr)
	data, err := psk.ReadCSVFile(*in, nil)
	if err != nil {
		return inputErr(err)
	}

	if *sql != "" {
		out, err := psk.Query(map[string]*psk.Table{"T": data}, *sql)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out.Format(-1))
		return nil
	}

	qis := splitList(*qi)
	confs := splitList(*conf)
	if len(qis) == 0 {
		return fmt.Errorf("-qi is required (or use -sql)")
	}
	pol, err := pf.compose(confs, *p, *k)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "rows: %d\n", data.NumRows())
	ok, err := psk.IsKAnonymous(data, qis, *k)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d-anonymity: %v\n", *k, ok)

	riskM, err := psk.MeasureRisk(data, qis)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "risk: prosecutor max %.3f, marketer %.3f, %d unique records\n",
		riskM.ProsecutorMax, riskM.MarketerRisk, riskM.UniqueRecords)

	if len(confs) == 0 {
		return nil
	}

	maxP, err := psk.MaxP(data, confs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "maxP (necessary condition 1): %d\n", maxP)
	if *p <= maxP {
		mg, err := psk.MaxGroups(data, confs, *p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "maxGroups for p=%d (necessary condition 2): %d\n", *p, mg)
	}

	s, err := psk.Sensitivity(data, qis, confs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sensitivity (largest satisfied p): %d\n", s)

	psOK, err := psk.IsPSensitiveKAnonymous(data, qis, confs, *p, *k)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d-sensitive %d-anonymity: %v\n", *p, *k, psOK)

	disc, err := psk.AttributeDisclosures(data, qis, confs, *p)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "attribute disclosures at p=%d (group x attribute pairs): %d\n", *p, disc)

	if *verb {
		vs, err := psk.ListViolations(data, qis, confs, *p, *k)
		if err != nil {
			return err
		}
		for _, v := range vs {
			why := ""
			if v.TooSmall {
				why = fmt.Sprintf("size %d < k", v.Size)
			}
			for attr, d := range v.LowDiversity {
				if why != "" {
					why += "; "
				}
				why += fmt.Sprintf("%s has %d < p distinct", attr, d)
			}
			fmt.Fprintf(stdout, "  violation [%s]: %s\n", v.KeyString(), why)
		}
	}

	// Composite policy verdict: report and exit non-zero on violation,
	// so scripts can gate a release on `pskcheck && publish`.
	if pol == nil && of.active() {
		// No policy flags, but telemetry was requested: time the
		// built-in target so -stats/-metrics-json report a per-policy
		// row instead of an empty recorder. The printed verdicts above
		// are untouched.
		if _, err := psk.EvaluatePolicy(data, qis, confs, psk.Instrument(psk.PSensitiveKAnonymity(*p, *k, confs), of.rec)); err != nil {
			return err
		}
	}
	if pol != nil {
		verdict, err := psk.EvaluatePolicy(data, qis, confs, psk.Instrument(pol, of.rec))
		if err != nil {
			return err
		}
		if !verdict.Satisfied {
			fmt.Fprintf(stdout, "policy %s: VIOLATED (%s, QI-group #%d)\n", pol.Name(), verdict.Reason, verdict.Group)
			if rerr := of.report(nil, stderr); rerr != nil {
				return rerr
			}
			return fmt.Errorf("policy %s violated: %s", pol.Name(), verdict.Reason)
		}
		fmt.Fprintf(stdout, "policy %s: satisfied (%d QI-groups)\n", pol.Name(), verdict.Groups)
	}
	return of.report(nil, stderr)
}

// Gen implements adultgen: emit synthetic Adult microdata, or with
// -stream a JSONL delta file (append/retire batches) against a base
// table of the same size.
func Gen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("adultgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n       = fs.Int("n", 4000, "number of records")
		scale   = fs.Int("scale", 0, "emit the full 48,842-row Adult shape times this factor (overrides -n)")
		seed    = fs.Int64("seed", 2006, "generator seed")
		out     = fs.String("out", "", "output file (default: stdout)")
		doDelta = fs.Bool("stream", false, "emit a JSONL delta stream (for pskanon -stream) instead of CSV; -n/-scale size the base table the deltas run against")
		batches = fs.Int("batches", 8, "with -stream: number of delta batches")
		churn   = fs.Float64("churn", 0.01, "with -stream: fraction of the base rows each batch retires and re-appends")
	)
	prof := registerProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start(stderr)
	if err != nil {
		return err
	}
	defer stopProf()
	if *doDelta {
		baseRows := *n
		if *scale > 0 {
			baseRows = *scale * dataset.AdultRows
		}
		bs, err := dataset.GenerateBatches(baseRows, *batches, *churn, *seed)
		if err != nil {
			return err
		}
		if *out == "" {
			return stream.Write(stdout, bs)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := stream.Write(f, bs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d delta batches against %d base rows to %s\n", len(bs), baseRows, *out)
		return nil
	}
	var tbl *table.Table
	if *scale > 0 {
		tbl, err = dataset.GenerateScaled(*scale, *seed)
	} else {
		tbl, err = dataset.Generate(*n, *seed)
	}
	if err != nil {
		return err
	}
	if *out == "" {
		return tbl.WriteCSV(stdout)
	}
	if err := tbl.WriteCSVFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d records to %s\n", tbl.NumRows(), *out)
	return nil
}

func csvHeader(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.TrimLeadingSpace = true
	return r.Read()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
