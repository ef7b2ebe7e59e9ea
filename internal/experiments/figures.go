package experiments

import (
	"fmt"
	"strings"

	"psk/internal/core"
	"psk/internal/generalize"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
)

// E3: Figure 1 — domain and value generalization hierarchies.

// HierarchyRendering shows each domain level of a hierarchy with its
// distinct labels, reproducing Figure 1's DGH column.
type HierarchyRendering struct {
	Attribute string
	// Levels[i] lists the distinct labels of domain level i in first-
	// appearance order over the supplied ground values.
	Levels [][]string
}

// RenderHierarchy evaluates a hierarchy over ground values and lists
// the distinct labels per level.
func RenderHierarchy(h hierarchy.Hierarchy, ground []string) (HierarchyRendering, error) {
	out := HierarchyRendering{Attribute: h.Attribute()}
	for lvl := 0; lvl <= h.Height(); lvl++ {
		seen := make(map[string]bool)
		var labels []string
		for _, v := range ground {
			g, err := h.Generalize(v, lvl)
			if err != nil {
				return HierarchyRendering{}, err
			}
			if !seen[g] {
				seen[g] = true
				labels = append(labels, g)
			}
		}
		out.Levels = append(out.Levels, labels)
	}
	return out, nil
}

// Figure1Result holds the two renderings of Figure 1.
type Figure1Result struct {
	ZipCode HierarchyRendering
	Sex     HierarchyRendering
}

// RunFigure1 reproduces Figure 1: the ZipCode hierarchy over the
// example zips (Z0..Z2) and the Sex hierarchy (S0..S1).
func RunFigure1() (Figure1Result, error) {
	zip, err := hierarchy.NewPrefix("ZipCode", 5, 2)
	if err != nil {
		return Figure1Result{}, err
	}
	sex := hierarchy.NewFlat("Sex")
	sex.Top = "Person"
	var res Figure1Result
	res.ZipCode, err = RenderHierarchy(zip, []string{"41075", "41076", "41088", "41099"})
	if err != nil {
		return Figure1Result{}, err
	}
	res.Sex, err = RenderHierarchy(sex, []string{"M", "F"})
	if err != nil {
		return Figure1Result{}, err
	}
	return res, nil
}

// Format renders both hierarchies.
func (r Figure1Result) Format() string {
	var b strings.Builder
	for _, h := range []HierarchyRendering{r.ZipCode, r.Sex} {
		fmt.Fprintf(&b, "%s domain generalization hierarchy:\n", h.Attribute)
		for lvl, labels := range h.Levels {
			fmt.Fprintf(&b, "  level %d: {%s}\n", lvl, strings.Join(labels, ", "))
		}
	}
	return b.String()
}

// E4: Figure 2 — the generalization lattice for Sex x ZipCode.

// Figure2Result lists the lattice nodes by height.
type Figure2Result struct {
	Height int
	Size   int
	// ByHeight[h] are the node labels at height h.
	ByHeight [][]string
}

// RunFigure2 reproduces Figure 2: the 6-node lattice over <S, Z> with
// heights 0..3.
func RunFigure2() (Figure2Result, error) {
	lat, err := lattice.New([]int{1, 2})
	if err != nil {
		return Figure2Result{}, err
	}
	res := Figure2Result{Height: lat.Height(), Size: lat.Size()}
	for h := 0; h <= lat.Height(); h++ {
		var labels []string
		for _, n := range lat.NodesAtHeight(h) {
			labels = append(labels, n.Label([]string{"S", "Z"}))
		}
		res.ByHeight = append(res.ByHeight, labels)
	}
	return res, nil
}

// Format renders the lattice level by level, top down like the figure.
func (r Figure2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generalization lattice for <Sex, ZipCode>: %d nodes, height %d\n", r.Size, r.Height)
	for h := len(r.ByHeight) - 1; h >= 0; h-- {
		fmt.Fprintf(&b, "  height %d: %s\n", h, strings.Join(r.ByHeight[h], "  "))
	}
	return b.String()
}

// E5: Figure 3 — tuples failing 3-anonymity at every node.

// Figure3Result maps each lattice node label to the number of tuples
// that do not satisfy 3-anonymity there (the parenthesized counts).
type Figure3Result struct {
	K int
	// Nodes in bottom-up order with their violation counts.
	Nodes  []string
	Counts []int
}

// RunFigure3 reproduces Figure 3's per-node counts for k = 3.
func RunFigure3() (Figure3Result, error) {
	tbl, err := Figure3Data()
	if err != nil {
		return Figure3Result{}, err
	}
	hs, err := Figure3Hierarchies()
	if err != nil {
		return Figure3Result{}, err
	}
	m, err := generalize.NewMasker([]string{"Sex", "ZipCode"}, hs)
	if err != nil {
		return Figure3Result{}, err
	}
	res := Figure3Result{K: 3}
	c := m.NewCache(tbl, nil)
	for _, node := range m.Lattice().AllNodes() {
		g, err := c.Apply(node)
		if err != nil {
			return Figure3Result{}, err
		}
		n, err := core.TuplesViolatingK(g, []string{"Sex", "ZipCode"}, 3)
		if err != nil {
			return Figure3Result{}, err
		}
		res.Nodes = append(res.Nodes, node.Label([]string{"S", "Z"}))
		res.Counts = append(res.Counts, n)
	}
	return res, nil
}

// Format renders the per-node counts.
func (r Figure3Result) Format() string {
	rows := make([][]string, len(r.Nodes))
	for i := range r.Nodes {
		rows[i] = []string{r.Nodes[i], fmt.Sprint(r.Counts[i])}
	}
	return fmt.Sprintf("Tuples not satisfying %d-anonymity per lattice node (Figure 3):\n%s",
		r.K, renderTable([]string{"Node", "Violating tuples"}, rows))
}
