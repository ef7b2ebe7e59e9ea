package lattice

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// figure2 returns the paper's Figure 2 lattice: Sex (height 1) x ZipCode
// (height 2).
func figure2(t *testing.T) *Lattice {
	t.Helper()
	l, err := New([]int{1, 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

// TestFigure2Heights verifies the exact heights the paper lists for the
// Sex x ZipCode lattice: height(<S0,Z0>)=0, <S1,Z0>=1, <S0,Z1>=1,
// <S1,Z1>=2, <S1,Z2>=3, height(GL)=3.
func TestFigure2Heights(t *testing.T) {
	l := figure2(t)
	cases := []struct {
		node Node
		want int
	}{
		{Node{0, 0}, 0},
		{Node{1, 0}, 1},
		{Node{0, 1}, 1},
		{Node{1, 1}, 2},
		{Node{0, 2}, 2},
		{Node{1, 2}, 3},
	}
	for _, c := range cases {
		if got := c.node.Height(); got != c.want {
			t.Errorf("height(%v) = %d, want %d", c.node, got, c.want)
		}
	}
	if l.Height() != 3 {
		t.Errorf("height(GL) = %d, want 3", l.Height())
	}
	if l.Size() != 6 {
		t.Errorf("Size = %d, want 6", l.Size())
	}
}

func TestFigure2LevelEnumeration(t *testing.T) {
	l := figure2(t)
	wantCounts := []int{1, 2, 2, 1} // by height 0..3
	for h, want := range wantCounts {
		nodes := l.NodesAtHeight(h)
		if len(nodes) != want {
			t.Errorf("nodes at height %d = %d, want %d (%v)", h, len(nodes), want, nodes)
		}
	}
	if l.NodesAtHeight(-1) != nil || l.NodesAtHeight(4) != nil {
		t.Error("out-of-range heights should yield nil")
	}
	all := l.AllNodes()
	if len(all) != 6 {
		t.Errorf("AllNodes = %d, want 6", len(all))
	}
	if !all[0].Equal(l.Bottom()) || !all[5].Equal(l.Top()) {
		t.Errorf("AllNodes order wrong: %v", all)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := New([]int{1, -1}); err == nil {
		t.Error("negative dim accepted")
	}
}

func TestPartialOrder(t *testing.T) {
	a := Node{1, 0}
	b := Node{1, 2}
	c := Node{0, 2}
	if !b.GeneralizationOf(a) || !b.StrictGeneralizationOf(a) {
		t.Error("b should generalize a")
	}
	if a.GeneralizationOf(b) {
		t.Error("a should not generalize b")
	}
	if b.GeneralizationOf(Node{0}) {
		t.Error("length mismatch should be false")
	}
	// Incomparable pair.
	if a.GeneralizationOf(c) || c.GeneralizationOf(a) {
		t.Error("a and c should be incomparable")
	}
	if !a.GeneralizationOf(a) || a.StrictGeneralizationOf(a) {
		t.Error("reflexivity broken")
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	l := figure2(t)
	succ := l.Successors(Node{0, 1})
	if len(succ) != 2 {
		t.Fatalf("successors = %v", succ)
	}
	if !succ[0].Equal(Node{1, 1}) || !succ[1].Equal(Node{0, 2}) {
		t.Errorf("successors = %v", succ)
	}
	if got := l.Successors(l.Top()); len(got) != 0 {
		t.Errorf("top successors = %v", got)
	}
	// The immediate specializations of <1,1> are the two nodes one level
	// below that it generalizes.
	var pred []Node
	for _, p := range l.NodesAtHeight(1) {
		if (Node{1, 1}).GeneralizationOf(p) {
			pred = append(pred, p)
		}
	}
	if len(pred) != 2 {
		t.Fatalf("predecessors = %v", pred)
	}
}

func TestContains(t *testing.T) {
	l := figure2(t)
	if !l.Contains(Node{1, 2}) || l.Contains(Node{2, 0}) || l.Contains(Node{0, 3}) ||
		l.Contains(Node{0}) || l.Contains(Node{-1, 0}) {
		t.Error("Contains broken")
	}
}

func TestLabelsAndKeys(t *testing.T) {
	n := Node{1, 2}
	if n.String() != "<1,2>" {
		t.Errorf("String = %q", n.String())
	}
	if n.Key() != "1,2" {
		t.Errorf("Key = %q", n.Key())
	}
	if got := n.Label([]string{"S", "Z"}); got != "<S1, Z2>" {
		t.Errorf("Label = %q", got)
	}
	if got := n.Label([]string{"S"}); got != "<S1, 2>" {
		t.Errorf("partial Label = %q", got)
	}
}

func TestMinimal(t *testing.T) {
	// From Table 4 (TS in 2..6): {<0,2>, <1,1>} are both 3-minimal; the
	// set also satisfying at <1,2> must be filtered out.
	nodes := []Node{{0, 2}, {1, 1}, {1, 2}}
	min := Minimal(nodes)
	if len(min) != 2 {
		t.Fatalf("Minimal = %v", min)
	}
	if !min[0].Equal(Node{0, 2}) || !min[1].Equal(Node{1, 1}) {
		t.Errorf("Minimal = %v", min)
	}
	if got := Minimal(nil); got != nil {
		t.Errorf("Minimal(nil) = %v", got)
	}
	// A single node is minimal.
	single := Minimal([]Node{{1, 1}})
	if len(single) != 1 {
		t.Errorf("Minimal single = %v", single)
	}
}

// latticeGen generates random small lattices for property tests.
type latticeGen struct {
	l *Lattice
}

func (latticeGen) Generate(r *rand.Rand, _ int) reflect.Value {
	nd := 1 + r.Intn(4)
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = r.Intn(4)
	}
	l, _ := New(dims)
	return reflect.ValueOf(latticeGen{l: l})
}

// Property: the per-height node counts sum to Size(), and every node at
// height h actually has Height() == h.
func TestHeightPartitionProperty(t *testing.T) {
	f := func(g latticeGen) bool {
		total := 0
		for h := 0; h <= g.l.Height(); h++ {
			nodes := g.l.NodesAtHeight(h)
			total += len(nodes)
			for _, n := range nodes {
				if n.Height() != h || !g.l.Contains(n) {
					return false
				}
			}
		}
		return total == g.l.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the successors of n are exactly the nodes one level up
// that generalize n, so n is an immediate specialization of each.
func TestSuccessorPredecessorDuality(t *testing.T) {
	f := func(g latticeGen) bool {
		for _, n := range g.l.AllNodes() {
			succ := g.l.Successors(n)
			for _, s := range succ {
				if s.Height() != n.Height()+1 || !s.StrictGeneralizationOf(n) {
					return false
				}
			}
			up := 0
			for _, m := range g.l.NodesAtHeight(n.Height() + 1) {
				if m.GeneralizationOf(n) {
					up++
				}
			}
			if up != len(succ) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Minimal returns an antichain (no member generalizes
// another) and every input node generalizes some minimal node.
func TestMinimalAntichainProperty(t *testing.T) {
	f := func(g latticeGen, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		all := g.l.AllNodes()
		var subset []Node
		for _, n := range all {
			if r.Intn(3) == 0 {
				subset = append(subset, n)
			}
		}
		min := Minimal(subset)
		for i, a := range min {
			for j, b := range min {
				if i != j && a.StrictGeneralizationOf(b) {
					return false
				}
			}
		}
		for _, n := range subset {
			covered := false
			for _, m := range min {
				if n.GeneralizationOf(m) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAdultLatticeShape checks the paper's Adult lattice: 4x3x4x2 = 96
// nodes, height 9 (Section 4).
func TestAdultLatticeShape(t *testing.T) {
	l, err := New([]int{3, 2, 3, 1}) // Age, MaritalStatus, Race, Sex heights
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if l.Size() != 96 {
		t.Errorf("Adult lattice size = %d, want 96", l.Size())
	}
	if l.Height() != 9 {
		t.Errorf("Adult lattice height = %d, want 9", l.Height())
	}
}

// Property: NodesAbove(lo, h) lists, in NodesAtHeight's order, exactly
// the nodes of height h that generalize lo.
func TestNodesAboveProperty(t *testing.T) {
	f := func(g latticeGen, pick uint) bool {
		all := g.l.AllNodes()
		lo := all[int(pick%uint(len(all)))]
		for h := 0; h <= g.l.Height(); h++ {
			var want []Node
			for _, n := range g.l.NodesAtHeight(h) {
				if n.GeneralizationOf(lo) {
					want = append(want, n)
				}
			}
			if got := g.l.NodesAbove(lo, h); !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
