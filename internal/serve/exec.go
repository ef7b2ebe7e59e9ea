package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"

	"psk/internal/config"
	"psk/internal/core"
	"psk/internal/hierarchy"
	"psk/internal/obs"
	"psk/internal/risk"
	"psk/internal/search"
	"psk/internal/table"
)

// CheckResult is the verdict of a check job.
type CheckResult struct {
	Satisfied bool   `json:"satisfied"`
	Policy    string `json:"policy"`
	Reason    string `json:"reason"`
	// Groups is the number of QI-groups observed; Group the index of the
	// first violating group (-1 when none is implicated).
	Groups int `json:"groups"`
	Group  int `json:"group"`
	Rows   int `json:"rows"`
}

// AnonymizeResult is the outcome of an anonymize job.
type AnonymizeResult struct {
	Found      bool   `json:"found"`
	Node       string `json:"node,omitempty"`
	Height     int    `json:"height"`
	Suppressed int    `json:"suppressed"`
	// ReleasedRows counts the rows of the masked table.
	ReleasedRows int `json:"released_rows"`
	// AllMinimal lists every minimal node the algorithm found (Node
	// alone for samarati).
	AllMinimal []string `json:"all_minimal,omitempty"`
	// MaskedCSV carries the released table when the request asked for it.
	MaskedCSV string `json:"masked_csv,omitempty"`
}

// FrontierMember is one scored node of a frontier job's result.
type FrontierMember struct {
	Node       string `json:"node"`
	Height     int    `json:"height"`
	Rank       int    `json:"rank"`
	MinGroup   int    `json:"min_group"`
	Groups     int    `json:"groups"`
	Suppressed int    `json:"suppressed"`
	// Loss metrics (see internal/loss).
	HeightRatio      float64 `json:"height_ratio"`
	Precision        float64 `json:"precision"`
	Discernibility   int     `json:"discernibility"`
	AvgGroupRatio    float64 `json:"avg_group_ratio"`
	SuppressionRatio float64 `json:"suppression_ratio"`
	EntropyLossBits  float64 `json:"entropy_loss_bits"`
}

// FrontierResult is the outcome of a frontier job.
type FrontierResult struct {
	Members []FrontierMember `json:"members"`
}

// AttackResult is the outcome of an attack job: the record-linkage
// summary of risk.SummarizeAttack.
type AttackResult struct {
	Individuals               int     `json:"individuals"`
	Linked                    int     `json:"linked"`
	UniquelyIdentified        int     `json:"uniquely_identified"`
	AttributeDisclosed        int     `json:"attribute_disclosed"`
	MaxIdentityRisk           float64 `json:"max_identity_risk"`
	ExpectedReidentifications float64 `json:"expected_reidentifications"`
}

// JobResult is the kind-discriminated union a finished job reports.
type JobResult struct {
	Check     *CheckResult     `json:"check,omitempty"`
	Anonymize *AnonymizeResult `json:"anonymize,omitempty"`
	Frontier  *FrontierResult  `json:"frontier,omitempty"`
	Attack    *AttackResult    `json:"attack,omitempty"`
}

// exitCode maps a result onto the CLI exit-code convention: a negative
// verdict (violated property, no generalization, empty frontier) is
// ExitViolation, everything else ExitOK.
func (r *JobResult) exitCode() int {
	switch {
	case r == nil:
		return ExitInputError
	case r.Check != nil && !r.Check.Satisfied:
		return ExitViolation
	case r.Anonymize != nil && !r.Anonymize.Found:
		return ExitViolation
	case r.Frontier != nil && len(r.Frontier.Members) == 0:
		return ExitViolation
	}
	return ExitOK
}

// runFunc performs a job's computation. It runs on a queue worker with
// the execution's cancellable context and private recorder.
type runFunc func(ctx context.Context, rec *obs.Recorder) (*JobResult, search.StopReason, error)

// sharedData is one entry of the server's dataset cache: what
// concurrent searches over one (dataset bytes, types, hierarchies, QI
// list) can share — the parsed table and the built hierarchies. Each
// search builds its own generalization cache from them, so its
// telemetry and memory budget are its own.
type sharedData struct {
	tbl   *table.Table
	hiers *hierarchy.Set
}

// execution is one underlying computation, shared by every job whose
// request hashed to the same Key (single-flight). It is created at
// submit, queued once, and finished exactly once; completed cacheable
// executions stay in the server's result cache and later identical
// submissions attach to them without re-running.
type execution struct {
	key    Key
	kind   string
	ctx    context.Context
	cancel context.CancelFunc
	run    runFunc
	// body is the SHA-256 of the request body that created the
	// execution: its one entry in the server's digest index.
	body [sha256.Size]byte

	// refs counts attached, not-yet-cancelled jobs; the last DELETE
	// drops it to zero and cancels the context.
	refs atomic.Int64
	// started flips when a worker picks the execution up — the boundary
	// between "cancel removes it from the queue" and "cancel interrupts
	// the engine".
	started atomic.Bool
	// done closes when the outcome fields below are final.
	done chan struct{}

	rec  *obs.Recorder
	view *obs.Server

	// Outcome; written once before done closes. report is the frozen
	// final obs report — the same pointer the per-job /metrics endpoint
	// serves, so the status payload's embedded report and a /metrics
	// scrape are byte-identical documents.
	result *JobResult
	stop   search.StopReason
	err    error
	exit   int
	report *obs.Report
}

func newExecution(key Key, kind string, run runFunc) *execution {
	ctx, cancel := context.WithCancel(context.Background())
	rec := obs.NewRecorder()
	view, _ := obs.NewHandler(rec, nil) // only errs on nil recorder
	return &execution{
		key: key, kind: kind, ctx: ctx, cancel: cancel, run: run,
		done: make(chan struct{}), rec: rec, view: view,
	}
}

// join attaches one more job to an in-flight execution. It fails once
// the last attached job has cancelled it: refs never rises again from
// zero, so a cancelled search gains no new tenant.
func (e *execution) join() bool {
	for {
		n := e.refs.Load()
		if n <= 0 {
			return false
		}
		if e.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (e *execution) finished() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// finish records the outcome and freezes the per-job /metrics view on
// the final report. Called exactly once, by the worker that ran (or
// skipped) the execution.
func (e *execution) finish(res *JobResult, stop search.StopReason, err error) {
	e.result, e.stop, e.err = res, stop, err
	switch {
	case err != nil:
		if isInputError(err) {
			e.exit = ExitInputError
		} else {
			e.exit = -1 // internal failure; HTTPStatus maps it to 500
		}
	case stop == search.StopCancelled && res == nil:
		e.exit = -1 // cancelled before any verdict
	default:
		e.exit = res.exitCode()
	}
	e.report = e.rec.Snapshot()
	e.view.Finalize(e.report)
	close(e.done)
}

// cacheable reports whether the outcome may serve future identical
// requests. Only complete runs qualify: partial results (deadline, node
// or memory budget, cancellation) depend on wall clock and scheduling,
// and errors should be re-observed, not replayed.
func (e *execution) cacheable() bool {
	return e.err == nil && e.stop == search.StopDone && e.result != nil
}

// prepare validates a decoded request, clamps its budget to the
// server's cap, computes its content key and builds its run: it parses
// the CSV of a check or attack job, or resolves a search's dataset-cache
// entry. Everything that can fail with a 400 fails here, at submit time
// — a rejected request never touches the queue or the engine.
func (s *Server) prepare(r *JobRequest) (Key, runFunc, error) {
	if err := r.validate(); err != nil {
		return Key{}, nil, err
	}
	eff := clampBudget(r.Budget, s.opt.MaxBudget)
	workers := r.Workers
	if workers < 0 || workers > s.opt.MaxSearchWorkers {
		workers = s.opt.MaxSearchWorkers
	}
	key, err := r.key(eff)
	if err != nil {
		return Key{}, nil, err
	}
	var run runFunc
	switch r.Kind {
	case KindCheck:
		run, err = s.prepareCheck(r)
	case KindAnonymize, KindFrontier:
		run, err = s.prepareSearch(r, key, eff, workers)
	case KindAttack:
		run, err = s.prepareAttack(r)
	}
	return key, run, err
}

// prepareCheck builds a check run: one group-statistics pass, then the
// target policy's verdict — the service twin of pskcheck.
func (s *Server) prepareCheck(r *JobRequest) (runFunc, error) {
	pol, err := core.Composite(r.Conf, r.P, r.K, r.LDiv, r.TClose, r.Alpha)
	if err != nil {
		return nil, inputError{err}
	}
	if pol == nil {
		if r.P <= 1 || len(r.Conf) == 0 {
			pol = core.KAnonymityPolicy{K: r.K}
		} else {
			pol = core.PSensitiveKAnonymityPolicy{P: r.P, K: r.K, Attrs: r.Conf}
		}
	}
	s.stats.datasetParses.Add(1)
	tbl, err := table.ReadCSV(strings.NewReader(r.CSV), nil)
	if err != nil {
		return nil, inputError{err}
	}
	qis, confs := r.QIs, r.Conf
	return func(ctx context.Context, rec *obs.Recorder) (*JobResult, search.StopReason, error) {
		v, err := core.NewStatsView(tbl, qis, confs, 1)
		if err != nil {
			return nil, search.StopDone, inputError{err}
		}
		verdict, err := core.Observe(pol, rec).Evaluate(v)
		if err != nil {
			return nil, search.StopDone, inputError{err}
		}
		return &JobResult{Check: &CheckResult{
			Satisfied: verdict.Satisfied,
			Policy:    pol.Name(),
			Reason:    verdict.Reason.String(),
			Groups:    verdict.Groups,
			Group:     verdict.Group,
			Rows:      tbl.NumRows(),
		}}, search.StopDone, nil
	}, nil
}

// prepareSearch builds an anonymize or frontier run over the shared
// dataset entry for (dataset, hierarchy): concurrent tenants searching
// the same data reuse one parsed table and its hierarchies, and each
// search builds its own generalization cache from them.
func (s *Server) prepareSearch(r *JobRequest, key Key, eff search.Budget, workers int) (runFunc, error) {
	strategy, err := search.ParseStrategy(r.Algorithm)
	if err != nil {
		return nil, inputError{err}
	}
	// Round-trip the embedded job through config.Parse so the service
	// applies exactly the validation pskanon's -job path does.
	raw, err := json.Marshal(r.Job)
	if err != nil {
		return nil, inputError{err}
	}
	job, err := config.Parse(raw)
	if err != nil {
		return nil, inputError{err}
	}
	for attr, spec := range job.Hierarchies {
		if spec.File != "" {
			return nil, inputErrf("hierarchy %q: file-based specs are not accepted over the service (inline the chains)", attr)
		}
	}
	if err := strategy.CheckQIs(len(job.QuasiIdentifiers)); err != nil {
		return nil, inputError{err}
	}
	pol, err := core.Composite(job.Confidential, job.P, job.K, r.LDiv, r.TClose, r.Alpha)
	if err != nil {
		return nil, inputError{err}
	}
	sd, err := s.sharedDataset(key, r.CSV, job)
	if err != nil {
		return nil, err
	}
	kind, includeMasked := r.Kind, r.IncludeMasked
	run := func(ctx context.Context, rec *obs.Recorder) (*JobResult, search.StopReason, error) {
		cfg := search.Config{
			QIs:           job.QuasiIdentifiers,
			Confidential:  job.Confidential,
			Hierarchies:   sd.hiers,
			K:             job.K,
			P:             job.P,
			MaxSuppress:   job.MaxSuppress,
			Policy:        pol,
			UseConditions: true,
			Workers:       workers,
			Recorder:      rec,
			Context:       ctx,
			Budget:        eff,
		}
		if kind == KindFrontier {
			cfg.Frontier = search.FrontierConfig{Enabled: true}
		}
		res, err := search.Run(sd.tbl, cfg, strategy)
		if err != nil {
			return nil, search.StopDone, inputError{err}
		}
		if kind == KindFrontier {
			fr := &FrontierResult{Members: []FrontierMember{}}
			for _, f := range res.Frontier {
				fr.Members = append(fr.Members, FrontierMember{
					Node:             fmt.Sprint(f.Node),
					Height:           f.Node.Height(),
					Rank:             f.Rank,
					MinGroup:         f.MinGroup,
					Groups:           f.Groups,
					Suppressed:       f.Suppressed,
					HeightRatio:      f.Loss.HeightRatio,
					Precision:        f.Loss.Precision,
					Discernibility:   f.Loss.Discernibility,
					AvgGroupRatio:    f.Loss.AvgGroupRatio,
					SuppressionRatio: f.Loss.SuppressionRatio,
					EntropyLossBits:  f.Loss.EntropyLossBits,
				})
			}
			return &JobResult{Frontier: fr}, res.StopReason, nil
		}
		ar := &AnonymizeResult{Found: res.Found, Suppressed: res.Suppressed}
		if res.Found {
			ar.Node = fmt.Sprint(res.Node)
			ar.Height = res.Node.Height()
			ar.ReleasedRows = res.Masked.NumRows()
			for _, m := range res.Minimal {
				ar.AllMinimal = append(ar.AllMinimal, fmt.Sprint(m.Node))
			}
			if includeMasked {
				var buf strings.Builder
				if err := res.Masked.WriteCSV(&buf); err != nil {
					return nil, res.StopReason, err
				}
				ar.MaskedCSV = buf.String()
			}
		}
		return &JobResult{Anonymize: ar}, res.StopReason, nil
	}
	return run, nil
}

// prepareAttack builds a record-linkage attack run — the service twin
// of pskattack.
func (s *Server) prepareAttack(r *JobRequest) (runFunc, error) {
	s.stats.datasetParses.Add(1)
	mm, err := table.ReadCSV(strings.NewReader(r.CSV), nil)
	if err != nil {
		return nil, inputErrf("masked csv: %w", err)
	}
	s.stats.datasetParses.Add(1)
	ext, err := table.ReadCSV(strings.NewReader(r.ExternalCSV), nil)
	if err != nil {
		return nil, inputErrf("external csv: %w", err)
	}
	qis, confs, id := r.QIs, r.Conf, r.ID
	return func(ctx context.Context, rec *obs.Recorder) (*JobResult, search.StopReason, error) {
		in := &risk.Intruder{External: ext, IDAttr: id, QIs: qis}
		links, err := in.Attack(mm, confs)
		if err != nil {
			return nil, search.StopDone, inputError{err}
		}
		sum := risk.Summarize(links)
		return &JobResult{Attack: &AttackResult{
			Individuals:               sum.Individuals,
			Linked:                    sum.Linked,
			UniquelyIdentified:        sum.UniquelyIdentified,
			AttributeDisclosed:        sum.AttributeDisclosed,
			MaxIdentityRisk:           sum.MaxIdentityRisk,
			ExpectedReidentifications: sum.ExpectedReidentifications,
		}}, search.StopDone, nil
	}, nil
}
