// Package config loads anonymization job descriptions from JSON for the
// command-line tools: attribute roles, k/p parameters, the suppression
// threshold and per-attribute generalization hierarchies.
//
// Example:
//
//	{
//	  "quasiIdentifiers": ["Age", "ZipCode", "Sex"],
//	  "confidential": ["Illness"],
//	  "k": 3, "p": 2, "maxSuppress": 10,
//	  "types": {"Age": "int"},
//	  "hierarchies": {
//	    "Age":     {"type": "interval",
//	                "levels": [{"name": "decades", "width": 10, "min": 0, "max": 99},
//	                           {"cuts": [50], "labels": ["<50", ">=50"]},
//	                           {"labels": ["*"]}]},
//	    "ZipCode": {"type": "prefixSteps", "width": 5, "suppress": [2, 5]},
//	    "Sex":     {"type": "flat", "top": "Person"}
//	  }
//	}
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"psk/internal/hierarchy"
	"psk/internal/table"
)

// Job is a parsed anonymization job.
type Job struct {
	QuasiIdentifiers []string                 `json:"quasiIdentifiers"`
	Confidential     []string                 `json:"confidential"`
	K                int                      `json:"k"`
	P                int                      `json:"p"`
	MaxSuppress      int                      `json:"maxSuppress"`
	Types            map[string]string        `json:"types"`
	Hierarchies      map[string]HierarchySpec `json:"hierarchies"`
}

// HierarchySpec is the JSON form of one attribute's hierarchy.
type HierarchySpec struct {
	// Type is one of "interval", "tree", "prefix", "prefixSteps",
	// "flat".
	Type string `json:"type"`
	// Interval fields: ordered levels.
	Levels []IntervalLevelSpec `json:"levels,omitempty"`
	// Tree fields: either inline chains or a file of
	// "value;level1;level2" lines.
	Chains map[string][]string `json:"chains,omitempty"`
	File   string              `json:"file,omitempty"`
	// Prefix fields.
	Width    int   `json:"width,omitempty"`
	Steps    int   `json:"steps,omitempty"`
	Suppress []int `json:"suppress,omitempty"`
	// Flat fields.
	Top string `json:"top,omitempty"`
}

// IntervalLevelSpec is one numeric level: either explicit cuts+labels,
// or a fixed-width bucketing over [min, max].
type IntervalLevelSpec struct {
	Name   string   `json:"name,omitempty"`
	Cuts   []int64  `json:"cuts,omitempty"`
	Labels []string `json:"labels,omitempty"`
	Width  int64    `json:"width,omitempty"`
	Min    int64    `json:"min,omitempty"`
	Max    int64    `json:"max,omitempty"`
}

// Load reads and validates a job file.
func Load(path string) (*Job, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return Parse(raw)
}

// Parse parses and validates a job from JSON bytes.
func Parse(raw []byte) (*Job, error) {
	var job Job
	if err := json.Unmarshal(raw, &job); err != nil {
		return nil, fmt.Errorf("config: invalid JSON: %w", err)
	}
	if len(job.QuasiIdentifiers) == 0 {
		return nil, fmt.Errorf("config: no quasiIdentifiers")
	}
	if job.K < 2 {
		return nil, fmt.Errorf("config: k must be >= 2, got %d", job.K)
	}
	if job.P < 1 {
		return nil, fmt.Errorf("config: p must be >= 1, got %d", job.P)
	}
	if job.P > job.K {
		return nil, fmt.Errorf("config: p (%d) must be <= k (%d)", job.P, job.K)
	}
	if job.P >= 2 && len(job.Confidential) == 0 {
		return nil, fmt.Errorf("config: p >= 2 requires confidential attributes")
	}
	if job.MaxSuppress < 0 {
		return nil, fmt.Errorf("config: negative maxSuppress")
	}
	for _, qi := range job.QuasiIdentifiers {
		if _, ok := job.Hierarchies[qi]; !ok {
			return nil, fmt.Errorf("config: quasi-identifier %q has no hierarchy", qi)
		}
	}
	if err := job.checkWidthLevels(); err != nil {
		return nil, err
	}
	return &job, nil
}

// checkWidthLevels bounds what the job's width levels expand to. An
// interval level with a width becomes one interval per width between
// min and max, so a few bytes of job JSON could otherwise ask for
// billions of labels, or loop past int64 overflow. Together the width
// levels may expand to at most hierarchy.MaxTreeValues intervals, the
// cap on one tree's ground domain, and width, min and max must lie
// within ±2^61.
func (j *Job) checkWidthLevels() error {
	const bound = 1 << 61
	var total int64
	for attr, spec := range j.Hierarchies {
		if spec.Type != "interval" {
			continue
		}
		for i, ls := range spec.Levels {
			if ls.Width <= 0 {
				continue
			}
			if ls.Width > bound || ls.Min < -bound || ls.Max > bound {
				return fmt.Errorf("config: %s: interval level %d: width, min and max must lie within ±2^61", attr, i+1)
			}
			if ls.Max > ls.Min {
				total += (ls.Max-ls.Min)/ls.Width + 1
			}
			if total > hierarchy.MaxTreeValues {
				return fmt.Errorf("config: %s: interval level %d: the job's width levels expand to more than %d intervals",
					attr, i+1, hierarchy.MaxTreeValues)
			}
		}
	}
	return nil
}

// Schema builds the table schema for a CSV with the given header,
// applying the job's optional type overrides (default: string).
func (j *Job) Schema(header []string) (table.Schema, error) {
	fields := make([]table.Field, len(header))
	for i, name := range header {
		t := table.String
		if ts, ok := j.Types[name]; ok {
			var err error
			t, err = table.ParseType(ts)
			if err != nil {
				return table.Schema{}, fmt.Errorf("config: attribute %q: %w", name, err)
			}
		}
		fields[i] = table.Field{Name: name, Type: t}
	}
	return table.NewSchema(fields...)
}

// BuildHierarchies materializes the hierarchy set. Tree specs with a
// File are resolved relative to the current directory.
func (j *Job) BuildHierarchies() (*hierarchy.Set, error) {
	var hs []hierarchy.Hierarchy
	for attr, spec := range j.Hierarchies {
		h, err := buildOne(attr, spec)
		if err != nil {
			return nil, err
		}
		hs = append(hs, h)
	}
	return hierarchy.NewSet(hs...)
}

func buildOne(attr string, spec HierarchySpec) (hierarchy.Hierarchy, error) {
	switch spec.Type {
	case "interval":
		if len(spec.Levels) == 0 {
			return nil, fmt.Errorf("config: %s: interval hierarchy needs levels", attr)
		}
		levels := make([]hierarchy.IntervalLevel, 0, len(spec.Levels))
		for i, ls := range spec.Levels {
			switch {
			case ls.Width > 0:
				levels = append(levels, hierarchy.DecadeLevel(ls.Name, ls.Min, ls.Max, ls.Width))
			case len(ls.Cuts) > 0 || len(ls.Labels) > 0:
				levels = append(levels, hierarchy.IntervalLevel{Name: ls.Name, Cuts: ls.Cuts, Labels: ls.Labels})
			default:
				return nil, fmt.Errorf("config: %s: interval level %d needs width or cuts/labels", attr, i+1)
			}
		}
		return hierarchy.NewInterval(attr, levels)
	case "tree":
		if spec.File != "" {
			raw, err := os.ReadFile(spec.File)
			if err != nil {
				return nil, fmt.Errorf("config: %s: %w", attr, err)
			}
			return hierarchy.ParseTree(attr, string(raw))
		}
		if len(spec.Chains) == 0 {
			return nil, fmt.Errorf("config: %s: tree hierarchy needs chains or file", attr)
		}
		return hierarchy.NewTree(attr, spec.Chains)
	case "prefix":
		return hierarchy.NewPrefix(attr, spec.Width, spec.Steps)
	case "prefixSteps":
		return hierarchy.NewPrefixSteps(attr, spec.Width, spec.Suppress)
	case "flat":
		f := hierarchy.NewFlat(attr)
		f.Top = spec.Top
		return f, nil
	default:
		return nil, fmt.Errorf("config: %s: unknown hierarchy type %q", attr, spec.Type)
	}
}
