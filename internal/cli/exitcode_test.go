package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodeConvention pins the 0/1/2 contract the release tooling
// scripts against: nil is OK, a verdict is 1, and anything from the
// input layer is 2 — including when further wrapped by a caller.
func TestExitCodeConvention(t *testing.T) {
	if c := ExitCode(nil); c != ExitOK {
		t.Errorf("nil -> %d, want %d", c, ExitOK)
	}
	if c := ExitCode(fmt.Errorf("policy violated")); c != ExitViolation {
		t.Errorf("plain error -> %d, want %d", c, ExitViolation)
	}
	if c := ExitCode(inputErr(fmt.Errorf("bad csv"))); c != ExitInputError {
		t.Errorf("input error -> %d, want %d", c, ExitInputError)
	}
	wrapped := fmt.Errorf("context: %w", inputErr(fmt.Errorf("bad csv")))
	if c := ExitCode(wrapped); c != ExitInputError {
		t.Errorf("wrapped input error -> %d, want %d", c, ExitInputError)
	}
	if inputErr(nil) != nil {
		t.Error("inputErr(nil) != nil")
	}
}

// TestUsageErrorsExitInputError: a rejected invocation — an unknown or
// malformed flag, a missing required flag, an unreadable input file, an
// unknown experiment name — exits 2 from every tool, never 1, which
// scripts read as "the data failed the policy".
func TestUsageErrorsExitInputError(t *testing.T) {
	csvPath, _, dir := writeFixtures(t)
	none := filepath.Join(dir, "none.csv")
	cases := []struct {
		name string
		run  func(args []string, stdout, stderr io.Writer) error
		args []string
	}{
		{"pskanon no flags", Anon, nil},
		{"pskanon unknown flag", Anon, []string{"-bogus"}},
		{"pskcheck unknown flag", Check, []string{"-bogus"}},
		{"pskcheck no -in", Check, []string{"-qi", "Sex"}},
		{"pskcheck no -qi", Check, []string{"-in", csvPath}},
		{"pskattack unknown flag", Attack, []string{"-bogus"}},
		{"pskattack no flags", Attack, nil},
		{"pskattack unreadable files", Attack, []string{"-masked", none, "-external", none, "-qi", "Age"}},
		{"pskattack unreadable external", Attack, []string{"-masked", csvPath, "-external", none, "-qi", "Age"}},
		{"pskexp unknown experiment", Exp, []string{"-exp", "nope"}},
		{"pskexp malformed flag", Exp, []string{"-seed", "x"}},
		{"adultgen unknown flag", Gen, []string{"-bogus"}},
	}
	for _, tc := range cases {
		var out, errw strings.Builder
		err := tc.run(tc.args, &out, &errw)
		if ExitCode(err) != ExitInputError {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, ExitCode(err), err, ExitInputError)
		}
	}
}

// TestAnonExitCodes drives Anon through the three classes: a clean
// run, loader failures (missing file, malformed job, malformed CSV)
// and a no-solution verdict, checking the exit code each would map to.
func TestAnonExitCodes(t *testing.T) {
	csvPath, jobPath, dir := writeFixtures(t)

	var out, errw strings.Builder
	if err := Anon([]string{"-in", csvPath, "-job", jobPath}, &out, &errw); ExitCode(err) != ExitOK {
		t.Errorf("clean run: exit %d (%v)", ExitCode(err), err)
	}

	loaderCases := []struct {
		name string
		args []string
	}{
		{"missing job", []string{"-in", csvPath, "-job", filepath.Join(dir, "none.json")}},
		{"missing csv", []string{"-in", filepath.Join(dir, "none.csv"), "-job", jobPath}},
	}
	badJob := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJob, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaderCases = append(loaderCases, struct {
		name string
		args []string
	}{"malformed job", []string{"-in", csvPath, "-job", badJob}})
	for _, tc := range loaderCases {
		var out, errw strings.Builder
		err := Anon(tc.args, &out, &errw)
		if ExitCode(err) != ExitInputError {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, ExitCode(err), err, ExitInputError)
		}
	}

	// Infeasible p: the loaders succeeded, the verdict is "no solution"
	// — exit 1, not 2.
	job := strings.Replace(jobJSON, `"k": 3, "p": 2`, `"k": 8, "p": 6`, 1)
	infeasible := filepath.Join(dir, "infeasible.json")
	if err := os.WriteFile(infeasible, []byte(job), 0o644); err != nil {
		t.Fatal(err)
	}
	var vout, verrw strings.Builder
	err := Anon([]string{"-in", csvPath, "-job", infeasible}, &vout, &verrw)
	if err == nil || ExitCode(err) != ExitViolation {
		t.Errorf("infeasible p: exit %d (%v), want %d", ExitCode(err), err, ExitViolation)
	}
}

// TestCheckExitCodes does the same for Check: missing input is 2, a
// violated composite policy is 1.
func TestCheckExitCodes(t *testing.T) {
	csvPath, _, dir := writeFixtures(t)

	var out, errw strings.Builder
	err := Check([]string{"-in", filepath.Join(dir, "none.csv"), "-qi", "Sex"}, &out, &errw)
	if ExitCode(err) != ExitInputError {
		t.Errorf("missing csv: exit %d (%v), want %d", ExitCode(err), err, ExitInputError)
	}

	// The fixture is not 5-diverse: the composite verdict is a violation.
	var vout, verrw strings.Builder
	err = Check([]string{"-in", csvPath, "-qi", "Age,ZipCode,Sex", "-conf", "Illness", "-ldiv", "5"}, &vout, &verrw)
	if err == nil || ExitCode(err) != ExitViolation {
		t.Errorf("violated policy: exit %d (%v), want %d", ExitCode(err), err, ExitViolation)
	}
}

// TestAnonBudgetFlags: a generous budget leaves the result identical
// to an unbudgeted run; a one-node budget still exits cleanly when a
// solution was found in the prefix, or explains itself when not.
func TestAnonBudgetFlags(t *testing.T) {
	csvPath, jobPath, _ := writeFixtures(t)

	var plain, plainErr strings.Builder
	if err := Anon([]string{"-in", csvPath, "-job", jobPath}, &plain, &plainErr); err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}
	var budgeted, budgetedErr strings.Builder
	if err := Anon([]string{"-in", csvPath, "-job", jobPath, "-timeout", "1m", "-max-nodes", "100000"}, &budgeted, &budgetedErr); err != nil {
		t.Fatalf("budgeted: %v", err)
	}
	if plain.String() != budgeted.String() {
		t.Error("generous budget changed the released table")
	}

	// One node on exhaustive cannot reach the satisfying region of this
	// lattice: the error must name the stop reason.
	var tiny, tinyErr strings.Builder
	err := Anon([]string{"-in", csvPath, "-job", jobPath, "-algorithm", "exhaustive", "-max-nodes", "1"}, &tiny, &tinyErr)
	if err == nil {
		t.Fatal("1-node exhaustive found a solution")
	}
	if !strings.Contains(err.Error(), "node-budget") {
		t.Errorf("error does not name the stop reason: %v", err)
	}
	if !strings.Contains(tinyErr.String(), "stopped early") {
		t.Errorf("stderr missing the early-stop warning:\n%s", tinyErr.String())
	}
	if ExitCode(err) != ExitViolation {
		t.Errorf("budget-stopped not-found: exit %d, want %d", ExitCode(err), ExitViolation)
	}
}
