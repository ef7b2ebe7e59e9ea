// Package serve implements anonymization-as-a-service: a stdlib-only
// net/http front door over the search engine. Check / anonymize /
// frontier / attack run as async jobs — POST /v1/jobs returns a job id,
// GET polls status and result, DELETE cancels through the engine's
// already-threaded context. The server adds what a multi-tenant
// deployment needs on top of the library: a bounded job queue with
// backpressure (429 + Retry-After), per-request budgets clamped by
// server-side caps, a result cache keyed by (dataset fingerprint,
// hierarchy hash, config hash) with single-flight dedup of identical
// in-flight requests, a dataset cache that shares one parsed table and
// its hierarchies across searches over the same dataset, and per-job
// obs endpoints.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"psk/internal/config"
	"psk/internal/search"
)

// Job kinds.
const (
	KindCheck     = "check"
	KindAnonymize = "anonymize"
	KindFrontier  = "frontier"
	KindAttack    = "attack"
)

// Exit codes mirror the CLI convention (cli.ExitOK / ExitViolation /
// ExitInputError); serve redeclares them because internal/cli imports
// this package and Go forbids the cycle. TestExitCodeAgreement in
// internal/cli pins the two sets against each other.
const (
	// ExitOK: the job ran and the verdict is positive (property holds,
	// generalization found, attack simulated).
	ExitOK = 0
	// ExitViolation: the job ran and the verdict is negative (property
	// violated, no satisfying generalization). A verdict, not a failure.
	ExitViolation = 1
	// ExitInputError: the request never produced a verdict (malformed
	// CSV, invalid parameters, unbuildable hierarchy).
	ExitInputError = 2
)

// HTTPStatus maps a job exit code onto the HTTP status of its result:
// both verdict outcomes are 200 (the verdict is the body — a violation
// is an answer, not a server failure), input errors are 400. This is
// the CLI exit-code convention lifted onto HTTP.
func HTTPStatus(exit int) int {
	switch exit {
	case ExitOK, ExitViolation:
		return 200
	case ExitInputError:
		return 400
	default:
		return 500
	}
}

// BudgetRequest is a per-request search budget. Every field is clamped
// by the server's Options.MaxBudget cap: a zero field inherits the cap,
// a positive one is reduced to it.
type BudgetRequest struct {
	// TimeoutMS bounds the search wall clock in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxNodes bounds the number of lattice nodes evaluated.
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// MaxCacheBytes bounds the hierarchy walks of the job's search
	// (search.Budget.MaxCacheBytes).
	MaxCacheBytes int64 `json:"max_cache_bytes,omitempty"`
}

// JobRequest is the POST /v1/jobs body. CSV payloads ride inline so a
// request is self-contained and content-addressable; the dataset
// fingerprint is the SHA-256 of the raw CSV bytes.
type JobRequest struct {
	// Kind selects the operation: check, anonymize, frontier or attack.
	Kind string `json:"kind"`
	// CSV is the input microdata (masked microdata for attack), header
	// row first.
	CSV string `json:"csv"`

	// Job is the anonymization job description (anonymize / frontier):
	// QIs, confidential attributes, k, p, suppression budget, types and
	// hierarchies — the same JSON pskanon's -job flag loads.
	Job *config.Job `json:"job,omitempty"`
	// Algorithm selects the search strategy (anonymize / frontier):
	// samarati (default), bottomup, exhaustive, allminimal or incognito.
	Algorithm string `json:"algorithm,omitempty"`
	// IncludeMasked asks the anonymize result to carry the masked CSV.
	IncludeMasked bool `json:"include_masked,omitempty"`

	// QIs / Conf / K / P parameterize check and attack (check mirrors
	// pskcheck's flags; anonymize takes them from Job instead).
	QIs  []string `json:"qi,omitempty"`
	Conf []string `json:"conf,omitempty"`
	K    int      `json:"k,omitempty"`
	P    int      `json:"p,omitempty"`

	// LDiv / TClose / Alpha extend the target policy exactly like the
	// CLI's -ldiv/-tclose/-alpha flags (TClose is a pointer because 0 is
	// a meaningful threshold).
	LDiv   int      `json:"ldiv,omitempty"`
	TClose *float64 `json:"tclose,omitempty"`
	Alpha  float64  `json:"alpha,omitempty"`

	// ExternalCSV and ID parameterize attack: the intruder's identified
	// table and its identifier column.
	ExternalCSV string `json:"external_csv,omitempty"`
	ID          string `json:"id,omitempty"`

	// Workers sizes the per-search engine worker pool (results are
	// identical at every worker count, so Workers is excluded from the
	// cache key). Clamped to the server's option.
	Workers int `json:"workers,omitempty"`
	// Budget bounds the search; see BudgetRequest.
	Budget BudgetRequest `json:"budget,omitempty"`
}

// Key is the content address of a job: three hex SHA-256 digests. Two
// requests with equal Keys are the same computation — the result cache
// and single-flight dedup both key on it.
type Key struct {
	// Dataset fingerprints the raw CSV bytes (plus the external CSV for
	// attack jobs).
	Dataset string `json:"dataset"`
	// Hierarchy hashes the data-preparation inputs: column types,
	// hierarchy specs and the QI list. It doubles as the dataset cache's
	// key component — equal (Dataset, Hierarchy) means the parsed table
	// and the hierarchies are reusable.
	Hierarchy string `json:"hierarchy"`
	// Config hashes everything else that selects the result: kind,
	// parameters, policy extensions, algorithm and the effective
	// (post-clamp) budget.
	Config string `json:"config"`
}

func sha(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		for i, l := 0, len(p); i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:]) // length-prefix so part boundaries can't collide
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashJSON hashes the canonical JSON of v (struct field order is fixed;
// map keys marshal sorted), so equal values hash equal.
func hashJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(string(raw)), nil
}

// configKey is the normalized form hashed into Key.Config. Workers is
// deliberately absent: the engine guarantees identical results at every
// worker count, so worker-count-only variations share cache entries.
type configKey struct {
	Kind          string        `json:"kind"`
	QIs           []string      `json:"qis"`
	Conf          []string      `json:"conf"`
	K             int           `json:"k"`
	P             int           `json:"p"`
	MaxSuppress   int           `json:"maxSuppress"`
	LDiv          int           `json:"ldiv"`
	TClose        *float64      `json:"tclose"`
	Alpha         float64       `json:"alpha"`
	Algorithm     string        `json:"algorithm"`
	IncludeMasked bool          `json:"includeMasked"`
	ID            string        `json:"id"`
	Budget        search.Budget `json:"budget"`
}

// prepKey is the normalized form hashed into Key.Hierarchy.
type prepKey struct {
	QIs         []string                        `json:"qis"`
	Types       map[string]string               `json:"types"`
	Hierarchies map[string]config.HierarchySpec `json:"hierarchies"`
}

// inputError marks a request defect: the job never produced a verdict.
// It maps to ExitInputError / HTTP 400, exactly like cli.InputError
// maps to exit 2.
type inputError struct{ err error }

func (e inputError) Error() string { return e.err.Error() }
func (e inputError) Unwrap() error { return e.err }

func inputErrf(format string, a ...any) error {
	return inputError{fmt.Errorf(format, a...)}
}

// isInputError reports whether err (or anything it wraps) marks an
// input defect.
func isInputError(err error) bool {
	for err != nil {
		if _, ok := err.(inputError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// validate checks the request shape common to all kinds and normalizes
// defaults. Every failure is an input error (400).
func (r *JobRequest) validate() error {
	switch r.Kind {
	case KindCheck, KindAnonymize, KindFrontier, KindAttack:
	case "":
		return inputErrf("missing job kind (check, anonymize, frontier, attack)")
	default:
		return inputErrf("unknown job kind %q", r.Kind)
	}
	if strings.TrimSpace(r.CSV) == "" {
		return inputErrf("missing csv payload")
	}
	if r.Budget.TimeoutMS < 0 || r.Budget.MaxNodes < 0 || r.Budget.MaxCacheBytes < 0 {
		return inputErrf("negative budget limit %+v", r.Budget)
	}
	switch r.Kind {
	case KindCheck:
		if len(r.QIs) == 0 {
			return inputErrf("check requires qi")
		}
		if r.K == 0 {
			r.K = 2
		}
		if r.P == 0 {
			r.P = 1
		}
		if r.K < 2 {
			return inputErrf("k must be >= 2, got %d", r.K)
		}
		if r.P < 1 || r.P > r.K {
			return inputErrf("p must satisfy 1 <= p <= k, got p=%d k=%d", r.P, r.K)
		}
		if r.P >= 2 && len(r.Conf) == 0 {
			return inputErrf("p >= 2 requires confidential attributes")
		}
	case KindAnonymize, KindFrontier:
		if r.Job == nil {
			return inputErrf("%s requires a job description", r.Kind)
		}
		if r.Algorithm == "" {
			r.Algorithm = search.StrategySamarati.String()
		}
	case KindAttack:
		if strings.TrimSpace(r.ExternalCSV) == "" {
			return inputErrf("attack requires external_csv")
		}
		if len(r.QIs) == 0 {
			return inputErrf("attack requires qi")
		}
		if r.ID == "" {
			r.ID = "Name"
		}
	}
	return nil
}

// key computes the job's content address with the effective budget
// already folded in.
func (r *JobRequest) key(eff search.Budget) (Key, error) {
	ck := configKey{
		Kind: r.Kind, QIs: r.QIs, Conf: r.Conf, K: r.K, P: r.P,
		LDiv: r.LDiv, TClose: r.TClose, Alpha: r.Alpha,
		Algorithm: r.Algorithm, IncludeMasked: r.IncludeMasked,
		ID: r.ID, Budget: eff,
	}
	pk := prepKey{}
	// Only a search reads the job description; check and attack jobs
	// ignore one they carry, so it must not stand in for their own
	// parameters in their key.
	if r.Job != nil && (r.Kind == KindAnonymize || r.Kind == KindFrontier) {
		ck.QIs = r.Job.QuasiIdentifiers
		ck.Conf = r.Job.Confidential
		ck.K = r.Job.K
		ck.P = r.Job.P
		ck.MaxSuppress = r.Job.MaxSuppress
		pk = prepKey{QIs: r.Job.QuasiIdentifiers, Types: r.Job.Types, Hierarchies: r.Job.Hierarchies}
	}
	cfgHash, err := hashJSON(ck)
	if err != nil {
		return Key{}, err
	}
	prepHash, err := hashJSON(pk)
	if err != nil {
		return Key{}, err
	}
	ds := sha(r.CSV)
	if r.Kind == KindAttack {
		ds = sha(r.CSV, r.ExternalCSV)
	}
	return Key{Dataset: ds, Hierarchy: prepHash, Config: cfgHash}, nil
}

// clampBudget applies the server cap to a requested budget, field by
// field: a zero request inherits the cap, a positive one is reduced to
// it. A zero cap leaves the request unclamped.
func clampBudget(req BudgetRequest, cap search.Budget) search.Budget {
	eff := search.Budget{
		Deadline:      time.Duration(req.TimeoutMS) * time.Millisecond,
		MaxNodes:      req.MaxNodes,
		MaxCacheBytes: req.MaxCacheBytes,
	}
	if cap.Deadline > 0 && (eff.Deadline <= 0 || eff.Deadline > cap.Deadline) {
		eff.Deadline = cap.Deadline
	}
	if cap.MaxNodes > 0 && (eff.MaxNodes <= 0 || eff.MaxNodes > cap.MaxNodes) {
		eff.MaxNodes = cap.MaxNodes
	}
	if cap.MaxCacheBytes > 0 && (eff.MaxCacheBytes <= 0 || eff.MaxCacheBytes > cap.MaxCacheBytes) {
		eff.MaxCacheBytes = cap.MaxCacheBytes
	}
	return eff
}
