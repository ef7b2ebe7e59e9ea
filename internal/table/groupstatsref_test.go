package table

import "sort"

// groupStatsRef is the row-at-a-time reference that GroupStats is held
// to: one serial pass over the rows through the Column interface, each
// row keyed by its varint byte-string key, one map per group and
// confidential attribute, and every histogram sorted once the pass is
// done. It shares no code with the statistics scan but varintKey.
func (t *Table) groupStatsRef(qis, confidential []string) (*GroupStats, error) {
	cols, err := t.columns(qis)
	if err != nil {
		return nil, err
	}
	confCols, err := t.columns(confidential)
	if err != nil {
		return nil, err
	}
	s := &GroupStats{NumRows: t.nrows, NumQI: len(cols), NumConf: len(confCols)}
	// histMaps[g][a] accumulates group g's histogram for confidential
	// attribute a.
	var histMaps [][]map[int]int
	idx := make(map[string]int)
	var key []byte
	for r := 0; r < t.nrows; r++ {
		key = varintKey(key[:0], cols, r)
		g, ok := idx[string(key)]
		if !ok {
			codes := make([]int, len(cols))
			for i, c := range cols {
				codes[i] = c.Code(r)
			}
			s.Groups = append(s.Groups, GroupStat{Codes: codes, Rep: r})
			hm := make([]map[int]int, len(confCols))
			for a := range hm {
				hm[a] = make(map[int]int)
			}
			histMaps = append(histMaps, hm)
			g = len(s.Groups) - 1
			idx[string(key)] = g
		}
		s.Groups[g].Size++
		for a, c := range confCols {
			histMaps[g][a][c.Code(r)]++
		}
	}
	for g := range s.Groups {
		s.Groups[g].Hists = make([]CodeHist, len(confCols))
		for a := range confCols {
			h := make(CodeHist, 0, len(histMaps[g][a]))
			for code, count := range histMaps[g][a] {
				h = append(h, CodeCount{Code: code, Count: count})
			}
			sort.Slice(h, func(i, j int) bool { return h[i].Code < h[j].Code })
			s.Groups[g].Hists[a] = h
		}
	}
	return s, nil
}
