package config

import (
	"os"
	"path/filepath"
	"testing"

	"psk/internal/table"
)

const validJSON = `{
  "quasiIdentifiers": ["Age", "ZipCode", "Sex"],
  "confidential": ["Illness"],
  "k": 3, "p": 2, "maxSuppress": 10,
  "types": {"Age": "int"},
  "hierarchies": {
    "Age":     {"type": "interval",
                "levels": [{"name": "decades", "width": 10, "min": 0, "max": 99},
                           {"cuts": [50], "labels": ["<50", ">=50"]},
                           {"labels": ["*"]}]},
    "ZipCode": {"type": "prefixSteps", "width": 5, "suppress": [2, 5]},
    "Sex":     {"type": "flat", "top": "Person"}
  }
}`

func TestParseValid(t *testing.T) {
	job, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if job.K != 3 || job.P != 2 || job.MaxSuppress != 10 {
		t.Errorf("job = %+v", job)
	}
	hs, err := job.BuildHierarchies()
	if err != nil {
		t.Fatalf("BuildHierarchies: %v", err)
	}
	age, err := hs.Get("Age")
	if err != nil {
		t.Fatal(err)
	}
	if age.Height() != 3 {
		t.Errorf("age height = %d", age.Height())
	}
	got, err := age.Generalize("42", 1)
	if err != nil || got != "40-49" {
		t.Errorf("42@1 = %q, %v", got, err)
	}
	got, _ = age.Generalize("42", 2)
	if got != "<50" {
		t.Errorf("42@2 = %q", got)
	}
	zip, _ := hs.Get("ZipCode")
	got, _ = zip.Generalize("43102", 1)
	if got != "431**" {
		t.Errorf("zip@1 = %q", got)
	}
	sex, _ := hs.Get("Sex")
	got, _ = sex.Generalize("M", 1)
	if got != "Person" {
		t.Errorf("sex@1 = %q", got)
	}
}

func TestSchemaTypes(t *testing.T) {
	job, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := job.Schema([]string{"Age", "ZipCode", "Sex", "Illness"})
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	if sch.Fields[0].Type != table.Int {
		t.Errorf("Age type = %v", sch.Fields[0].Type)
	}
	if sch.Fields[1].Type != table.String {
		t.Errorf("ZipCode type = %v", sch.Fields[1].Type)
	}
	// Bad type override.
	job.Types["Sex"] = "blob"
	if _, err := job.Schema([]string{"Sex"}); err == nil {
		t.Error("bad type accepted")
	}
}

func TestParseValidation(t *testing.T) {
	cases := []string{
		`not json`,
		`{}`,
		`{"quasiIdentifiers": ["A"], "k": 1, "p": 1, "hierarchies": {"A": {"type":"flat"}}}`,
		`{"quasiIdentifiers": ["A"], "k": 3, "p": 0, "hierarchies": {"A": {"type":"flat"}}}`,
		`{"quasiIdentifiers": ["A"], "k": 3, "p": 4, "hierarchies": {"A": {"type":"flat"}}}`,
		`{"quasiIdentifiers": ["A"], "k": 3, "p": 2, "hierarchies": {"A": {"type":"flat"}}}`,
		`{"quasiIdentifiers": ["A"], "confidential": ["S"], "k": 3, "p": 2, "maxSuppress": -1, "hierarchies": {"A": {"type":"flat"}}}`,
		`{"quasiIdentifiers": ["A"], "confidential": ["S"], "k": 3, "p": 2, "hierarchies": {}}`,
		// Width levels that would expand to billions of intervals, or past
		// int64 overflow, are rejected before anything is built.
		`{"quasiIdentifiers": ["A"], "k": 3, "p": 1, "hierarchies": {"A": {"type":"interval", "levels": [{"width": 1, "min": 0, "max": 1099511627776}]}}}`,
		`{"quasiIdentifiers": ["A"], "k": 3, "p": 1, "hierarchies": {"A": {"type":"interval", "levels": [{"width": 10, "min": 0, "max": 9223372036854775807}]}}}`,
		`{"quasiIdentifiers": ["A"], "k": 3, "p": 1, "hierarchies": {"A": {"type":"interval", "levels": [{"width": 9223372036854775807, "max": 10}]}}}`,
		`{"quasiIdentifiers": ["A"], "k": 3, "p": 1, "hierarchies": {"A": {"type":"interval", "levels": [{"width": 1, "max": 600000}, {"width": 1, "max": 600000}]}}}`,
	}
	for i, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestBuildHierarchyErrors(t *testing.T) {
	cases := []HierarchySpec{
		{Type: "unknown"},
		{Type: "interval"},
		{Type: "interval", Levels: []IntervalLevelSpec{{}}},
		{Type: "tree"},
		{Type: "tree", File: "/nonexistent"},
		{Type: "prefix", Width: 0},
		{Type: "prefixSteps", Width: 5, Suppress: nil},
	}
	for i, spec := range cases {
		if _, err := buildOne("X", spec); err == nil {
			t.Errorf("case %d accepted: %+v", i, spec)
		}
	}
}

func TestTreeFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "marital.csv")
	if err := os.WriteFile(path, []byte("a;Single;*\nb;Married;*\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := buildOne("M", HierarchySpec{Type: "tree", File: path})
	if err != nil {
		t.Fatalf("buildOne: %v", err)
	}
	got, _ := h.Generalize("a", 1)
	if got != "Single" {
		t.Errorf("a@1 = %q", got)
	}
}

func TestTreeInlineChains(t *testing.T) {
	h, err := buildOne("M", HierarchySpec{Type: "tree", Chains: map[string][]string{
		"x": {"g", "*"}, "y": {"g", "*"},
	}})
	if err != nil || h.Height() != 2 {
		t.Fatalf("buildOne: %v", err)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := os.WriteFile(path, []byte(validJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	job, err := Load(path)
	if err != nil || job.K != 3 {
		t.Errorf("Load: %v", err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
