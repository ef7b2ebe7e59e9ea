// Package lattice implements the generalization lattice of Samarati,
// the search space of full-domain generalization (paper Figure 2).
//
// A node is a vector of generalization levels, one per quasi-identifier
// attribute: node[i] in [0, dims[i]]. The partial order is component-wise
// <=; node Y is a generalization of X when Y >= X in every coordinate.
// The height of a node is the sum of its coordinates — the minimum path
// length from the bottom element — and the lattice height is the sum of
// the per-attribute hierarchy heights.
package lattice

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Node is a generalization level vector. Nodes are value-like; treat
// them as immutable once created.
type Node []int

// Clone returns an independent copy of the node.
func (n Node) Clone() Node {
	c := make(Node, len(n))
	copy(c, n)
	return c
}

// Height returns the sum of levels — height(X, GL) in the paper.
func (n Node) Height() int {
	h := 0
	for _, l := range n {
		h += l
	}
	return h
}

// Equal reports component-wise equality.
func (n Node) Equal(o Node) bool {
	if len(n) != len(o) {
		return false
	}
	for i := range n {
		if n[i] != o[i] {
			return false
		}
	}
	return true
}

// GeneralizationOf reports whether n >= o in every coordinate, i.e. n is
// on a path from o to the top of the lattice (n may equal o).
func (n Node) GeneralizationOf(o Node) bool {
	if len(n) != len(o) {
		return false
	}
	for i := range n {
		if n[i] < o[i] {
			return false
		}
	}
	return true
}

// StrictGeneralizationOf reports n >= o and n != o.
func (n Node) StrictGeneralizationOf(o Node) bool {
	return n.GeneralizationOf(o) && !n.Equal(o)
}

// Key returns a compact string key for maps. Searches key a node for
// every tag, refutation and roll-up store lookup, so it formats the
// levels without fmt.
func (n Node) Key() string {
	b := make([]byte, 0, 2*len(n))
	for i, l := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return string(b)
}

// String renders the node in the paper's notation using the given
// attribute prefixes, e.g. Label([]string{"A","M","R","S"}) -> "<A1, M1,
// R2, S1>". With no prefixes it renders "<1,1,2,1>".
func (n Node) String() string { return "<" + n.Key() + ">" }

// Label renders the node with attribute letter prefixes.
func (n Node) Label(prefixes []string) string {
	var b strings.Builder
	b.WriteByte('<')
	for i, l := range n {
		if i > 0 {
			b.WriteString(", ")
		}
		if i < len(prefixes) {
			fmt.Fprintf(&b, "%s%d", prefixes[i], l)
		} else {
			fmt.Fprintf(&b, "%d", l)
		}
	}
	b.WriteByte('>')
	return b.String()
}

// Lattice is the full generalization lattice for a vector of hierarchy
// heights. It is safe for concurrent use.
type Lattice struct {
	dims []int

	// byHeight memoizes NodesAtHeight results: the searches re-enumerate
	// the same levels many times (Samarati probes heights repeatedly,
	// the level sweeps walk every height), and the parallel engine needs
	// a stable node order to reduce worker results deterministically.
	mu       sync.Mutex
	byHeight map[int][]Node
}

// New builds a lattice with the given per-attribute maximum levels. All
// dimensions must be non-negative and there must be at least one.
func New(dims []int) (*Lattice, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("lattice: no dimensions")
	}
	for i, d := range dims {
		if d < 0 {
			return nil, fmt.Errorf("lattice: dimension %d has negative height %d", i, d)
		}
	}
	c := make([]int, len(dims))
	copy(c, dims)
	return &Lattice{dims: c}, nil
}

// Dims returns a copy of the dimension vector.
func (l *Lattice) Dims() []int {
	c := make([]int, len(l.dims))
	copy(c, l.dims)
	return c
}

// Height returns height(GL): the sum of all dimension heights.
func (l *Lattice) Height() int {
	h := 0
	for _, d := range l.dims {
		h += d
	}
	return h
}

// Size returns the total number of nodes: prod(dims[i]+1).
func (l *Lattice) Size() int {
	n := 1
	for _, d := range l.dims {
		n *= d + 1
	}
	return n
}

// Bottom returns the all-zeros node (no generalization).
func (l *Lattice) Bottom() Node { return make(Node, len(l.dims)) }

// Top returns the maximal node (full generalization).
func (l *Lattice) Top() Node {
	t := make(Node, len(l.dims))
	copy(t, l.dims)
	return t
}

// Contains reports whether the node is a valid member of the lattice.
func (l *Lattice) Contains(n Node) bool {
	if len(n) != len(l.dims) {
		return false
	}
	for i, v := range n {
		if v < 0 || v > l.dims[i] {
			return false
		}
	}
	return true
}

// Successors returns the immediate generalizations of n (one level up in
// a single coordinate).
func (l *Lattice) Successors(n Node) []Node {
	var out []Node
	for i := range n {
		if n[i] < l.dims[i] {
			s := n.Clone()
			s[i]++
			out = append(out, s)
		}
	}
	return out
}

// NodesAtHeight enumerates all nodes with the given height, in
// lexicographic order. Heights outside [0, Height()] yield nil. The
// enumeration is stable: repeated calls return the same shared slice,
// which callers must treat as read-only (nodes are immutable by
// convention; Clone before mutating).
func (l *Lattice) NodesAtHeight(h int) []Node {
	if h < 0 || h > l.Height() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if nodes, ok := l.byHeight[h]; ok {
		return nodes
	}
	out := l.NodesAbove(l.Bottom(), h)
	if l.byHeight == nil {
		l.byHeight = make(map[int][]Node)
	}
	l.byHeight[h] = out
	return out
}

// NodesAbove enumerates the nodes of height h that generalize lo, in
// lexicographic order: one level of the sublattice above lo. Pinning a
// coordinate of lo at its top confines the enumeration to the nodes
// that leave that attribute there. Unlike NodesAtHeight it memoizes
// nothing; every call returns fresh nodes.
func (l *Lattice) NodesAbove(lo Node, h int) []Node {
	var out []Node
	cur := lo.Clone()
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == len(l.dims) {
			if remaining == 0 {
				out = append(out, cur.Clone())
			}
			return
		}
		for v := lo[i]; v <= l.dims[i] && v-lo[i] <= remaining; v++ {
			cur[i] = v
			rec(i+1, remaining-(v-lo[i]))
		}
		cur[i] = lo[i]
	}
	rec(0, h-lo.Height())
	return out
}

// AllNodes enumerates every node, level by level from bottom to top.
func (l *Lattice) AllNodes() []Node {
	out := make([]Node, 0, l.Size())
	for h := 0; h <= l.Height(); h++ {
		out = append(out, l.NodesAtHeight(h)...)
	}
	return out
}

// Minimal filters a set of nodes down to its minimal elements under the
// generalization partial order: nodes with no other set member strictly
// below them. This implements the paper's Definition 3 over the set of
// nodes satisfying a property.
func Minimal(nodes []Node) []Node {
	var out []Node
	for i, n := range nodes {
		minimal := true
		for j, m := range nodes {
			if i != j && n.StrictGeneralizationOf(m) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, n)
		}
	}
	return out
}
