package risk

import (
	"fmt"

	"psk/internal/table"
)

// Aggregate re-identification risk measures in the three standard
// attacker models of the disclosure-control literature (and of Truta's
// earlier disclosure-risk paper the ICDE paper builds on):
//
//   - Prosecutor: the attacker targets a specific person known to be in
//     the release; the per-record risk is 1/|group|.
//   - Journalist: the attacker wants to re-identify anyone from an
//     identified external population containing the release; the
//     binding risk is the weakest group, 1/min|group|.
//   - Marketer: the attacker wants to re-identify as many records as
//     possible; the relevant number is the expected fraction of
//     correct matches, avg(1/|group|) = #groups/n.

// Measures aggregates group-size-based disclosure risk for a masked
// microdata with the given quasi-identifiers.
type Measures struct {
	// Records is the number of released tuples.
	Records int
	// Groups is the number of QI-equivalence classes.
	Groups int
	// MinGroup and MaxGroup are the extreme class sizes.
	MinGroup, MaxGroup int
	// ProsecutorMax is the maximum per-record risk, 1/MinGroup.
	ProsecutorMax float64
	// ProsecutorAvg is the mean per-record risk.
	ProsecutorAvg float64
	// JournalistRisk is 1/MinGroup (equal to ProsecutorMax without an
	// external frame; kept separate for reporting clarity).
	JournalistRisk float64
	// MarketerRisk is Groups/Records: the expected fraction of records
	// an attacker matching groups uniformly re-identifies correctly.
	MarketerRisk float64
	// UniqueRecords counts singleton classes (population uniques in the
	// release).
	UniqueRecords int
	// AtRisk counts records whose per-record risk exceeds 0.2 (groups
	// smaller than 5), the conventional "high risk" reporting line.
	AtRisk int
}

// Measure computes the risk measures for the masked microdata.
func Measure(mm *table.Table, qis []string) (Measures, error) {
	if len(qis) == 0 {
		return Measures{}, fmt.Errorf("risk: no quasi-identifiers")
	}
	groups, err := mm.GroupBy(qis...)
	if err != nil {
		return Measures{}, err
	}
	m := Measures{Records: mm.NumRows(), Groups: len(groups)}
	if len(groups) == 0 {
		return m, nil
	}
	m.MinGroup = groups[0].Size()
	for _, g := range groups {
		size := g.Size()
		if size < m.MinGroup {
			m.MinGroup = size
		}
		if size > m.MaxGroup {
			m.MaxGroup = size
		}
		if size == 1 {
			m.UniqueRecords++
		}
		if size < 5 {
			m.AtRisk += size
		}
	}
	m.ProsecutorMax = 1 / float64(m.MinGroup)
	m.JournalistRisk = m.ProsecutorMax
	m.MarketerRisk = float64(m.Groups) / float64(m.Records)
	m.ProsecutorAvg = m.MarketerRisk // avg over records of 1/|group| = groups/n
	return m, nil
}
