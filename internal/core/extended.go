package core

import (
	"fmt"
	"math"

	"psk/internal/hierarchy"
	"psk/internal/table"
)

// Extended p-sensitivity (in the spirit of Campan and Truta's follow-up
// "Extended P-Sensitive K-Anonymity"): plain p-sensitivity counts
// distinct confidential *values*, which leaves the similarity attack
// open — a group holding {Colon Cancer, Lung Cancer, Stomach Cancer}
// has three distinct values, yet an intruder still learns "cancer".
// The extended property equips the confidential attribute with its own
// value hierarchy and requires the group's values to remain at least
// p-diverse after generalization to every level below the root: the
// values must come from p different categories at every granularity at
// which categories are meaningful.

// ExtendedConfig configures the extended check for one confidential
// attribute.
type ExtendedConfig struct {
	// Hierarchy is the value generalization hierarchy over the
	// confidential attribute.
	Hierarchy hierarchy.Hierarchy
	// MaxLevel is the highest hierarchy level at which diversity is
	// still required; 0 means "ground values only" (plain
	// p-sensitivity). Levels above MaxLevel — typically the root, where
	// everything collapses to one label — are exempt. Negative values
	// default to Hierarchy.Height() - 1.
	MaxLevel int
}

func (c ExtendedConfig) maxLevel() int {
	if c.MaxLevel >= 0 {
		return c.MaxLevel
	}
	return c.Hierarchy.Height() - 1
}

// ConfLevelMaps resolves a confidential-attribute value hierarchy into
// the per-level code translations the statistics path consumes:
// maps[lvl] translates the table's ground confidential codes into the
// codes of their level-lvl labels, for every level 0 through maxLevel.
// Building the maps visits each distinct ground value once per level —
// afterwards every extended verdict is histogram-only.
func ConfLevelMaps(t *table.Table, confidential string, h hierarchy.Hierarchy, maxLevel int) ([]*table.CodeMap, error) {
	base, err := t.Column(confidential)
	if err != nil {
		return nil, err
	}
	maps := make([]*table.CodeMap, maxLevel+1)
	for lvl := 0; lvl <= maxLevel; lvl++ {
		lvl := lvl
		gen, err := t.MapColumn(confidential, func(v table.Value) (string, error) {
			return h.Generalize(v.Str(), lvl)
		})
		if err != nil {
			return nil, err
		}
		genCol, err := gen.Column(confidential)
		if err != nil {
			return nil, err
		}
		maps[lvl], err = table.BuildCodeMap(base, genCol)
		if err != nil {
			return nil, err
		}
	}
	return maps, nil
}

// CheckExtended reports whether the table satisfies extended
// p-sensitive k-anonymity for the given confidential attribute: it is
// k-anonymous, and every QI-group keeps at least p distinct labels at
// every hierarchy level from 0 through MaxLevel. It is a thin wrapper
// over ExtendedPolicy.
func CheckExtended(t *table.Table, qis []string, confidential string, p, k int, cfg ExtendedConfig) (bool, error) {
	if err := validatePK(p, k); err != nil {
		return false, err
	}
	if cfg.Hierarchy == nil {
		return false, fmt.Errorf("core: extended check requires a confidential-attribute hierarchy")
	}
	if cfg.Hierarchy.Attribute() != confidential {
		return false, fmt.Errorf("core: hierarchy is for %q, confidential attribute is %q",
			cfg.Hierarchy.Attribute(), confidential)
	}
	maxLevel := cfg.maxLevel()
	if maxLevel > cfg.Hierarchy.Height() {
		return false, fmt.Errorf("core: MaxLevel %d exceeds hierarchy height %d", maxLevel, cfg.Hierarchy.Height())
	}
	levelMaps, err := ConfLevelMaps(t, confidential, cfg.Hierarchy, maxLevel)
	if err != nil {
		return false, fmt.Errorf("core: extended check: %w", err)
	}
	v, err := NewStatsView(t, qis, []string{confidential}, 1)
	if err != nil {
		return false, err
	}
	res, err := ExtendedPolicy{Attr: confidential, P: p, K: k, MaxLevel: maxLevel, LevelMaps: levelMaps}.Evaluate(v)
	return res.Satisfied, err
}

// ExtendedSensitivity computes the largest p for which CheckExtended
// would succeed (ignoring the k side condition): the minimum, over
// QI-groups and hierarchy levels 0..MaxLevel, of the distinct label
// count. An empty table has extended sensitivity 0.
func ExtendedSensitivity(t *table.Table, qis []string, confidential string, cfg ExtendedConfig) (int, error) {
	if cfg.Hierarchy == nil {
		return 0, fmt.Errorf("core: extended sensitivity requires a confidential-attribute hierarchy")
	}
	if t.NumRows() == 0 {
		return 0, nil
	}
	maxLevel := cfg.maxLevel()
	if maxLevel < 0 {
		return 0, fmt.Errorf("core: extended sensitivity requires MaxLevel >= 0, got %d", maxLevel)
	}
	levelMaps, err := ConfLevelMaps(t, confidential, cfg.Hierarchy, maxLevel)
	if err != nil {
		return 0, fmt.Errorf("core: extended sensitivity: %w", err)
	}
	s, err := t.GroupStats(qis, []string{confidential}, 1)
	if err != nil {
		return 0, err
	}
	min := -1
	seen := make(map[int]struct{})
	for i := range s.Groups {
		for lvl := 0; lvl <= maxLevel; lvl++ {
			n, err := levelCategories(s.Groups[i].Hists[0], levelMaps[lvl], lvl, math.MaxInt, seen)
			if err != nil {
				return 0, err
			}
			if min == -1 || n < min {
				min = n
			}
		}
	}
	return min, nil
}
