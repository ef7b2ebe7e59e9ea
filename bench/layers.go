package main

import "psk/internal/obs"

// reportSum totals the search telemetry of a workload's traced ops:
// obs.Report snapshots added per op, or a session recorder's end state
// minus its start state.
type reportSum struct {
	phaseSelfNs map[string]int64

	nodes, rollupMerges, rollupScans                 int64
	frontierScored, frontierCut                      int64
	colHits, colMisses, colBytes, mapHits, mapMisses int64
	policyNs, policyEvals                            int64
	recheck, repairs, colds                          int64
}

// add accumulates sign * r.
func (s *reportSum) add(r *obs.Report, sign int64) {
	if r == nil {
		return
	}
	if s.phaseSelfNs == nil {
		s.phaseSelfNs = make(map[string]int64)
	}
	for _, p := range r.Phases {
		s.phaseSelfNs[p.Phase] += sign * p.SelfNs
	}
	s.nodes += sign * r.Nodes.Evaluated
	s.rollupMerges += sign * r.Rollup.Merges
	s.rollupScans += sign * r.Rollup.RowScans
	s.frontierScored += sign * r.Frontier.Scored
	s.frontierCut += sign * r.Frontier.CutSkipped
	s.colHits += sign * r.Cache.Hits
	s.colMisses += sign * r.Cache.Misses
	s.colBytes += sign * r.Cache.Bytes
	s.mapHits += sign * r.Cache.MapHits
	s.mapMisses += sign * r.Cache.MapMisses
	for _, p := range r.Policies {
		s.policyNs += sign * p.TotalNs
		s.policyEvals += sign * p.Count
	}
	s.recheck += sign * r.Incremental.GroupsRecheck
	s.repairs += sign * r.Incremental.RepairAscents
	s.colds += sign * r.Incremental.ColdFallbacks
}

// fill writes the per-op search-layer metrics into m. latticeSize is the
// node count of the searched lattice.
func (s *reportSum) fill(m map[string]float64, ops, latticeSize int) {
	if ops == 0 {
		return
	}
	per := float64(ops)
	for _, p := range searchPhases {
		m["search."+p+"_ms"] = float64(s.phaseSelfNs[p]) / 1e6 / per
	}
	m["search.nodes_evaluated"] = float64(s.nodes) / per
	if latticeSize > 0 {
		m["search.lattice_fraction"] = float64(s.nodes) / per / float64(latticeSize)
	}
	m["search.rollup_merges"] = float64(s.rollupMerges) / per
	m["search.rollup_row_scans"] = float64(s.rollupScans) / per
	m["search.frontier_scored"] = float64(s.frontierScored) / per
	m["search.frontier_cut_skipped"] = float64(s.frontierCut) / per
	m["generalize.cache_hit_ratio"] = ratio(s.colHits, s.colHits+s.colMisses)
	m["generalize.levelmap_hit_ratio"] = ratio(s.mapHits, s.mapHits+s.mapMisses)
	m["generalize.cache_mib"] = float64(s.colBytes) / mib / per
	m["core.policy_ms"] = float64(s.policyNs) / 1e6 / per
	m["core.policy_evals"] = float64(s.policyEvals) / per
	m["search.groups_recheck"] = float64(s.recheck) / per
	m["search.repair_ascents"] = float64(s.repairs) / per
	m["search.cold_fallbacks"] = float64(s.colds) / per
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
