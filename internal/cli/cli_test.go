package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psk"
)

const jobJSON = `{
  "quasiIdentifiers": ["Age", "ZipCode", "Sex"],
  "confidential": ["Illness"],
  "k": 3, "p": 2, "maxSuppress": 2,
  "types": {"Age": "int"},
  "hierarchies": {
    "Age":     {"type": "interval",
                "levels": [{"name": "decades", "width": 10, "min": 20, "max": 70},
                           {"cuts": [50], "labels": ["<50", ">=50"]},
                           {"labels": ["*"]}]},
    "ZipCode": {"type": "prefixSteps", "width": 5, "suppress": [2, 5]},
    "Sex":     {"type": "flat", "top": "Person"}
  }
}`

const patientsCSV = `Age,ZipCode,Sex,Illness
25,41076,M,Flu
29,41076,M,Asthma
31,41076,F,Diabetes
38,41099,F,Flu
34,41099,M,Diabetes
36,41099,M,Asthma
52,43102,M,Flu
55,43102,F,Heart Disease
58,43102,M,Diabetes
61,43103,F,Asthma
64,43103,M,Flu
67,43103,F,Heart Disease
`

// writeFixtures creates the CSV and job files in a temp dir.
func writeFixtures(t *testing.T) (csvPath, jobPath, dir string) {
	t.Helper()
	dir = t.TempDir()
	csvPath = filepath.Join(dir, "patients.csv")
	jobPath = filepath.Join(dir, "job.json")
	if err := os.WriteFile(csvPath, []byte(patientsCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobPath, []byte(jobJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath, jobPath, dir
}

func TestAnonEndToEnd(t *testing.T) {
	csvPath, jobPath, dir := writeFixtures(t)
	outPath := filepath.Join(dir, "masked.csv")
	var stdout, stderr strings.Builder

	err := Anon([]string{"-in", csvPath, "-job", jobPath, "-out", outPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("Anon: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "node:") || !strings.Contains(stderr.String(), "utility:") {
		t.Errorf("report missing:\n%s", stderr.String())
	}

	// The output must verify as 2-sensitive 3-anonymous.
	masked, err := psk.ReadCSVFile(outPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := psk.IsPSensitiveKAnonymous(masked, []string{"Age", "ZipCode", "Sex"}, []string{"Illness"}, 2, 3)
	if err != nil || !ok {
		t.Errorf("output not 2-sensitive 3-anonymous: %v", err)
	}
}

func TestAnonToStdout(t *testing.T) {
	csvPath, jobPath, _ := writeFixtures(t)
	var stdout, stderr strings.Builder
	err := Anon([]string{"-in", csvPath, "-job", jobPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("Anon: %v", err)
	}
	if !strings.HasPrefix(stdout.String(), "Age,ZipCode,Sex,Illness\n") {
		t.Errorf("stdout = %q", stdout.String()[:40])
	}
}

func TestAnonAlgorithms(t *testing.T) {
	csvPath, jobPath, _ := writeFixtures(t)
	for _, alg := range []string{"samarati", "bottomup", "exhaustive", "allminimal", "incognito"} {
		var stdout, stderr strings.Builder
		err := Anon([]string{"-in", csvPath, "-job", jobPath, "-algorithm", alg}, &stdout, &stderr)
		if err != nil {
			t.Errorf("algorithm %s: %v", alg, err)
		}
	}
	var stdout, stderr strings.Builder
	err := Anon([]string{"-in", csvPath, "-job", jobPath, "-algorithm", "magic"}, &stdout, &stderr)
	if ExitCode(err) != ExitInputError {
		t.Errorf("unknown algorithm: exit %d (%v), want %d", ExitCode(err), err, ExitInputError)
	}
}

func TestAnonInfeasibleP(t *testing.T) {
	csvPath, _, dir := writeFixtures(t)
	// Illness has 5 distinct values; ask for p = 6 via an edited job.
	job := strings.Replace(jobJSON, `"k": 3, "p": 2`, `"k": 8, "p": 6`, 1)
	jobPath := filepath.Join(dir, "badjob.json")
	if err := os.WriteFile(jobPath, []byte(job), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	err := Anon([]string{"-in", csvPath, "-job", jobPath}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "maxP") {
		t.Errorf("err = %v, want condition-1 explanation", err)
	}
}

func TestAnonErrors(t *testing.T) {
	csvPath, jobPath, dir := writeFixtures(t)
	var out, errw strings.Builder
	if err := Anon([]string{}, &out, &errw); err == nil {
		t.Error("missing flags accepted")
	}
	if err := Anon([]string{"-in", csvPath, "-job", filepath.Join(dir, "none.json")}, &out, &errw); err == nil {
		t.Error("missing job accepted")
	}
	if err := Anon([]string{"-in", filepath.Join(dir, "none.csv"), "-job", jobPath}, &out, &errw); err == nil {
		t.Error("missing csv accepted")
	}
	if err := Anon([]string{"-bogus"}, &out, &errw); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestCheckProperties(t *testing.T) {
	csvPath, _, _ := writeFixtures(t)
	var stdout, stderr strings.Builder
	err := Check([]string{"-in", csvPath, "-qi", "Age,ZipCode,Sex", "-conf", "Illness", "-k", "2", "-p", "2"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{
		"rows: 12",
		"2-anonymity: false", // raw data has singleton groups
		"maxP (necessary condition 1): 4",
		"sensitivity (largest satisfied p): 1",
		"risk: prosecutor max 1.000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckViolationsListing(t *testing.T) {
	csvPath, _, _ := writeFixtures(t)
	var stdout, stderr strings.Builder
	// The male group holds only {Flu, Asthma, Diabetes}: 3 < p = 4.
	err := Check([]string{"-in", csvPath, "-qi", "Sex", "-conf", "Illness", "-k", "4", "-p", "4", "-violations"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !strings.Contains(stdout.String(), "violation [") {
		t.Errorf("violations not listed:\n%s", stdout.String())
	}
}

func TestCheckSQL(t *testing.T) {
	csvPath, _, _ := writeFixtures(t)
	var stdout, stderr strings.Builder
	err := Check([]string{"-in", csvPath, "-sql", "SELECT Sex, COUNT(*) AS n FROM T GROUP BY Sex ORDER BY Sex"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("Check -sql: %v", err)
	}
	if !strings.Contains(stdout.String(), "Sex") || !strings.Contains(stdout.String(), "n") {
		t.Errorf("sql output:\n%s", stdout.String())
	}
	if err := Check([]string{"-in", csvPath, "-sql", "NOT SQL"}, &stdout, &stderr); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestCheckErrors(t *testing.T) {
	csvPath, _, dir := writeFixtures(t)
	var out, errw strings.Builder
	if err := Check([]string{}, &out, &errw); err == nil {
		t.Error("missing -in accepted")
	}
	if err := Check([]string{"-in", filepath.Join(dir, "none.csv"), "-qi", "A"}, &out, &errw); err == nil {
		t.Error("missing file accepted")
	}
	if err := Check([]string{"-in", csvPath}, &out, &errw); err == nil {
		t.Error("missing -qi accepted")
	}
	if err := Check([]string{"-in", csvPath, "-qi", "Nope"}, &out, &errw); err == nil {
		t.Error("unknown QI accepted")
	}
	if err := Check([]string{"-in", csvPath, "-qi", "Sex", "-conf", "Nope"}, &out, &errw); err == nil {
		t.Error("unknown confidential accepted")
	}
}

func TestGen(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "adult.csv")
	var stdout, stderr strings.Builder
	err := Gen([]string{"-n", "100", "-seed", "1", "-out", outPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("Gen: %v", err)
	}
	tbl, err := psk.ReadCSVFile(outPath, nil)
	if err != nil || tbl.NumRows() != 100 {
		t.Errorf("generated rows = %d, %v", tbl.NumRows(), err)
	}
	// Stdout mode.
	stdout.Reset()
	if err := Gen([]string{"-n", "5"}, &stdout, &stderr); err != nil {
		t.Fatalf("Gen stdout: %v", err)
	}
	if !strings.HasPrefix(stdout.String(), "Age,MaritalStatus,Race,Sex,") {
		t.Errorf("csv header = %q", strings.SplitN(stdout.String(), "\n", 2)[0])
	}
	if err := Gen([]string{"-n", "-3"}, &stdout, &stderr); err == nil {
		t.Error("negative n accepted")
	}
}

func TestExpSmallExperiments(t *testing.T) {
	for _, exp := range []string{"attack", "table3", "figure1", "figure2", "figure3", "table4", "example1"} {
		var stdout, stderr strings.Builder
		if err := Exp([]string{"-exp", exp}, &stdout, &stderr); err != nil {
			t.Errorf("Exp(%s): %v", exp, err)
		}
		if !strings.Contains(stdout.String(), "===") {
			t.Errorf("Exp(%s) produced no section header", exp)
		}
	}
}

func TestExpUnknown(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := Exp([]string{"-exp", "nope"}, &stdout, &stderr); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := Exp([]string{"-adult", "/nonexistent"}, &stdout, &stderr); err == nil {
		t.Error("missing adult file accepted")
	}
}

// TestExpWithRealAdultFormat drives the table8 path against a small
// fabricated adult.data file to exercise the loader wiring.
func TestExpWithRealAdultFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "adult.data")
	// 60 UCI-format rows: enough for a 50-record sample at k=2 to find
	// some masking (everything may generalize to the top node).
	var sb strings.Builder
	ages := []string{"22", "31", "44", "56", "67", "38"}
	marital := []string{"Never-married", "Married-civ-spouse", "Divorced"}
	races := []string{"White", "Black"}
	sexes := []string{"Male", "Female"}
	pays := []string{"<=50K", ">50K"}
	for i := 0; i < 60; i++ {
		sb.WriteString(ages[i%len(ages)] + ", Private, 0, HS-grad, 9, " +
			marital[i%len(marital)] + ", Sales, Husband, " +
			races[i%len(races)] + ", " + sexes[i%len(sexes)] +
			", 0, 0, 40, United-States, " + pays[i%len(pays)] + "\n")
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	err := Exp([]string{"-exp", "table7", "-adult", path}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("Exp table7 with adult file: %v", err)
	}
	if !strings.Contains(stdout.String(), "using real Adult data: 60 records") {
		t.Errorf("loader banner missing:\n%s", stdout.String())
	}
}

// TestExpMethods drives the E14 masking-method comparison end to end.
func TestExpMethods(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := Exp([]string{"-exp", "methods"}, &stdout, &stderr); err != nil {
		t.Fatalf("Exp(methods): %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"none (raw)", "mondrian", "microaggregation", "rank swap", "noise"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestExpTelemetryWritesTraceAndMetrics: the telemetry experiment
// honours -trace and -metrics-json, and the trace holds one event per
// node the four strategy reports count as evaluated.
func TestExpTelemetryWritesTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.json")
	var stdout, stderr strings.Builder
	if err := Exp([]string{"-exp", "telemetry", "-trace", tracePath, "-metrics-json", metricsPath}, &stdout, &stderr); err != nil {
		t.Fatalf("Exp(telemetry): %v\nstderr: %s", err, stderr.String())
	}
	var reports map[string]psk.Report
	if err := unmarshalFile(metricsPath, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("metrics JSON holds %d strategy reports, want 4", len(reports))
	}
	var evaluated int64
	for _, rep := range reports {
		evaluated += rep.Nodes.Evaluated
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := int64(bytes.Count(trace, []byte("\n"))); lines == 0 || lines != evaluated {
		t.Errorf("trace has %d events, reports evaluated %d nodes", lines, evaluated)
	}
}

// TestExpAll drives the complete experiment harness end to end — the
// same run that regenerates every table and figure (-short skips it).
func TestExpAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness skipped in -short mode")
	}
	var stdout, stderr strings.Builder
	if err := Exp([]string{"-exp", "all"}, &stdout, &stderr); err != nil {
		t.Fatalf("Exp(all): %v", err)
	}
	out := stdout.String()
	for _, want := range []string{
		"E1: motivating attack",
		"E2: Table 3 sensitivity",
		"E3: Figure 1 hierarchies",
		"E4: Figure 2 lattice",
		"E5: Figure 3 violation counts",
		"E6: Table 4 minimal generalizations",
		"E7: Tables 5-6 frequency sets",
		"E8: Table 7 Adult hierarchies",
		"E9: Table 8 attribute disclosures",
		"E10: necessary-condition ablation",
		"E11: full-domain vs Mondrian vs GreedyCluster utility",
		"E14: masking methods comparison",
		"maxGroups(p=5) = 25",
		"<S0, Z2> and <S1, Z1>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("harness output missing %q", want)
		}
	}
}

const maskedCSV = `Age,ZipCode,Sex,Illness
20,43102,M,Diabetes
20,43102,M,Diabetes
30,43102,F,Breast Cancer
30,43102,F,HIV
50,43102,M,Colon Cancer
50,43102,M,Heart Disease
`

const externalCSV = `Name,Age,ZipCode,Sex
Sam,20,43102,M
Eric,20,43102,M
Gloria,30,43102,F
Adam,50,43102,M
`

func TestAttackEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mmPath := filepath.Join(dir, "masked.csv")
	extPath := filepath.Join(dir, "external.csv")
	if err := os.WriteFile(mmPath, []byte(maskedCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(extPath, []byte(externalCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	err := Attack([]string{
		"-masked", mmPath, "-external", extPath,
		"-qi", "Age,ZipCode,Sex", "-conf", "Illness", "-leaks",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("Attack: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{
		"individuals: 4",
		"linked to at least one released record: 4",
		"uniquely identified (identity disclosure): 0",
		"learned a confidential value (attribute disclosure): 2",
		"LEAK: Eric has Illness = Diabetes",
		"LEAK: Sam has Illness = Diabetes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAttackErrors(t *testing.T) {
	var out, errw strings.Builder
	if err := Attack([]string{}, &out, &errw); err == nil {
		t.Error("missing flags accepted")
	}
	dir := t.TempDir()
	mmPath := filepath.Join(dir, "m.csv")
	os.WriteFile(mmPath, []byte(maskedCSV), 0o644)
	if err := Attack([]string{"-masked", mmPath, "-external", "/none", "-qi", "Age"}, &out, &errw); err == nil {
		t.Error("missing external accepted")
	}
	if err := Attack([]string{"-masked", "/none", "-external", mmPath, "-qi", "Age"}, &out, &errw); err == nil {
		t.Error("missing masked accepted")
	}
	extPath := filepath.Join(dir, "e.csv")
	os.WriteFile(extPath, []byte(externalCSV), 0o644)
	if err := Attack([]string{"-masked", mmPath, "-external", extPath, "-qi", "Nope"}, &out, &errw); err == nil {
		t.Error("unknown QI accepted")
	}
}

// TestCheckPolicyFlags pins the composite-policy surface of pskcheck:
// -ldiv/-tclose/-alpha conjoin extra properties, a satisfied composite
// reports and exits zero, a violated one exits non-zero.
func TestCheckPolicyFlags(t *testing.T) {
	// Two groups of two, each with two distinct illnesses.
	const diverseCSV = `Age,ZipCode,Sex,Illness
20,43102,M,Diabetes
20,43102,M,Flu
30,43102,F,Breast Cancer
30,43102,F,HIV
`
	dir := t.TempDir()
	mmPath := filepath.Join(dir, "masked.csv")
	if err := os.WriteFile(mmPath, []byte(diverseCSV), 0o644); err != nil {
		t.Fatal(err)
	}

	// Every group has 2 distinct illnesses: distinct 2-diversity on top
	// of 2-sensitive 2-anonymity is satisfied.
	var stdout, stderr strings.Builder
	err := Check([]string{"-in", mmPath, "-qi", "Age,ZipCode,Sex", "-conf", "Illness",
		"-k", "2", "-p", "2", "-ldiv", "2"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("satisfied policy errored: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "policy all(2-sensitive-2-anonymity(Illness) and distinct-2-diversity(Illness)): satisfied") {
		t.Errorf("satisfied verdict missing:\n%s", stdout.String())
	}

	// 3-diversity fails (2 distinct per group): non-zero exit.
	stdout.Reset()
	err = Check([]string{"-in", mmPath, "-qi", "Age,ZipCode,Sex", "-conf", "Illness",
		"-k", "2", "-p", "2", "-ldiv", "3"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "violated") {
		t.Errorf("violated policy err = %v", err)
	}
	if !strings.Contains(stdout.String(), "VIOLATED") {
		t.Errorf("violation verdict missing:\n%s", stdout.String())
	}

	// Each group's illnesses split 50/50 at best, so alpha 0.4 fails...
	stdout.Reset()
	err = Check([]string{"-in", mmPath, "-qi", "Age,ZipCode,Sex", "-conf", "Illness",
		"-k", "2", "-p", "2", "-alpha", "0.4"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "violated") {
		t.Errorf("alpha 0.4 err = %v", err)
	}
	// ...and alpha 0.5 passes, as does a loose t-closeness bound.
	stdout.Reset()
	err = Check([]string{"-in", mmPath, "-qi", "Age,ZipCode,Sex", "-conf", "Illness",
		"-k", "2", "-p", "2", "-alpha", "0.5", "-tclose", "1"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("alpha 0.5 + tclose 1: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "satisfied") {
		t.Errorf("verdict missing:\n%s", stdout.String())
	}

	// Policy flags without -conf are rejected.
	if err := Check([]string{"-in", mmPath, "-qi", "Sex", "-ldiv", "2"}, &stdout, &stderr); err == nil {
		t.Error("-ldiv without -conf accepted")
	}
}

// TestAnonPolicyFlags drives pskanon with a composite search target:
// the masked output must satisfy the extra l-diversity constraint, and
// an unachievable constraint must exit non-zero naming the policy.
func TestAnonPolicyFlags(t *testing.T) {
	csvPath, jobPath, dir := writeFixtures(t)
	outPath := filepath.Join(dir, "masked.csv")
	var stdout, stderr strings.Builder
	err := Anon([]string{"-in", csvPath, "-job", jobPath, "-ldiv", "2", "-out", outPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("Anon -ldiv 2: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "policy: all(2-sensitive-3-anonymity(Illness) and distinct-2-diversity(Illness))") {
		t.Errorf("policy banner missing:\n%s", stderr.String())
	}
	masked, err := psk.ReadCSVFile(outPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	qis := []string{"Age", "ZipCode", "Sex"}
	if ok, err := psk.IsPSensitiveKAnonymous(masked, qis, []string{"Illness"}, 2, 3); err != nil || !ok {
		t.Errorf("output not 2-sensitive 3-anonymous: %v", err)
	}
	if ok, err := psk.IsDistinctLDiverse(masked, qis, "Illness", 2); err != nil || !ok {
		t.Errorf("output not distinct 2-diverse: %v", err)
	}

	// Illness has 5 distinct values overall; 6-diversity is impossible.
	stdout.Reset()
	stderr.Reset()
	err = Anon([]string{"-in", csvPath, "-job", jobPath, "-ldiv", "6"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "distinct-6-diversity") {
		t.Errorf("impossible composite err = %v", err)
	}
}
