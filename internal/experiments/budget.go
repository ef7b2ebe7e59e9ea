package experiments

import (
	"fmt"
	"time"

	"psk/internal/dataset"
	"psk/internal/search"
	"psk/internal/table"
)

// E18: graceful degradation under budgets — the Adult search run under
// a ladder of node budgets, showing how the result set grows from an
// empty partial toward the full minimal set as the budget admits more
// of the lattice, with every stop tagged by its StopReason. A deadline
// and node budget from the pskexp flags add one extra row each, so a
// user can probe "what does my time budget buy" on their own data.

// BudgetRow is one bounded search of the ladder.
type BudgetRow struct {
	// Strategy names the search strategy.
	Strategy string
	// MaxNodes / Deadline are the limits in force (zero = unlimited).
	MaxNodes int64
	Deadline time.Duration
	// StopReason is why the search ended.
	StopReason search.StopReason
	// Evaluated is the node-evaluation count actually spent.
	Evaluated int
	// Minimal is the number of minimal nodes in the (partial) answer,
	// and Node the label of the first (or "-").
	Minimal int
	Node    string
}

// BudgetResult is the E18 study.
type BudgetResult struct {
	Size, K, P int
	// LatticeSize is the full lattice's node count, the ladder's ceiling.
	LatticeSize int
	Rows        []BudgetRow
}

// RunBudget runs the ladder on an Adult sample. deadline and maxNodes
// come from the pskexp -timeout / -max-nodes flags; either being
// nonzero appends a row bounded by exactly that flag.
func RunBudget(n, k, p int, source *table.Table, seed int64, deadline time.Duration, maxNodes int64) (BudgetResult, error) {
	src := source
	if src == nil {
		var err error
		src, err = dataset.Generate(30000, 2006)
		if err != nil {
			return BudgetResult{}, err
		}
	}
	im, err := src.Sample(n, seed)
	if err != nil {
		return BudgetResult{}, err
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		return BudgetResult{}, err
	}
	base := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             k,
		P:             p,
		MaxSuppress:   n / 100,
		UseConditions: true,
	}
	heights, err := hs.Heights(base.QIs)
	if err != nil {
		return BudgetResult{}, err
	}
	latticeSize := 1
	for _, h := range heights {
		latticeSize *= h + 1
	}

	res := BudgetResult{Size: n, K: k, P: p, LatticeSize: latticeSize}
	prefixes := dataset.LatticePrefixes()
	run := func(s namedStrategy, budget search.Budget) error {
		cfg := base
		cfg.Budget = budget
		r, err := search.Run(im, cfg, s.strategy)
		if err != nil {
			return err
		}
		node := "-"
		if r.Found {
			node = r.Node.Label(prefixes)
		}
		res.Rows = append(res.Rows, BudgetRow{
			Strategy: s.name, MaxNodes: budget.MaxNodes, Deadline: budget.Deadline,
			StopReason: r.StopReason, Evaluated: r.Stats.NodesEvaluated,
			Minimal: len(r.Minimal), Node: node,
		})
		return nil
	}
	exhaustive := namedStrategy{"Exhaustive", search.StrategyExhaustive}
	samarati := namedStrategy{"Samarati", search.StrategySamarati}

	// The ladder: powers of two up to the lattice size, then unlimited.
	for budget := int64(8); budget < int64(latticeSize); budget *= 2 {
		if err := run(exhaustive, search.Budget{MaxNodes: budget}); err != nil {
			return BudgetResult{}, err
		}
	}
	if err := run(exhaustive, search.Budget{}); err != nil {
		return BudgetResult{}, err
	}
	if maxNodes > 0 {
		if err := run(samarati, search.Budget{MaxNodes: maxNodes}); err != nil {
			return BudgetResult{}, err
		}
	}
	if deadline > 0 {
		if err := run(samarati, search.Budget{Deadline: deadline}); err != nil {
			return BudgetResult{}, err
		}
	}
	return res, nil
}

// Format renders the ladder table.
func (r BudgetResult) Format() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		limit := "none"
		switch {
		case row.MaxNodes > 0:
			limit = fmt.Sprintf("%d nodes", row.MaxNodes)
		case row.Deadline > 0:
			limit = row.Deadline.String()
		}
		rows[i] = []string{
			row.Strategy, limit, row.StopReason.String(),
			fmt.Sprint(row.Evaluated), fmt.Sprint(row.Minimal), row.Node,
		}
	}
	return fmt.Sprintf("Budget-bounded search on Adult n=%d (%d-sensitive %d-anonymity, lattice %d nodes, E18):\n%s",
		r.Size, r.P, r.K, r.LatticeSize,
		renderTable([]string{"Strategy", "budget", "stop", "evaluated", "minimal", "first node"}, rows))
}
