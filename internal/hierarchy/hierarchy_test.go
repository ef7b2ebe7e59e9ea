package hierarchy

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// TestFigure1ZipCodePrefix reproduces the paper's Figure 1 ZipCode VGH:
// Z0 = {41075,41076,41088,41099}, Z1 = 4107*/4108*/4109*, Z2 = 410**.
func TestFigure1ZipCodePrefix(t *testing.T) {
	p, err := NewPrefix("ZipCode", 5, 2)
	if err != nil {
		t.Fatalf("NewPrefix: %v", err)
	}
	cases := []struct {
		value string
		level int
		want  string
	}{
		{"41075", 0, "41075"},
		{"41075", 1, "4107*"},
		{"41076", 1, "4107*"},
		{"41088", 1, "4108*"},
		{"41099", 1, "4109*"},
		{"41075", 2, "410**"},
		{"41099", 2, "410**"},
	}
	for _, c := range cases {
		got, err := p.Generalize(c.value, c.level)
		if err != nil || got != c.want {
			t.Errorf("Generalize(%q, %d) = %q, %v; want %q", c.value, c.level, got, err, c.want)
		}
	}
	if p.Height() != 2 {
		t.Errorf("Height = %d, want 2", p.Height())
	}
}

func TestPrefixErrors(t *testing.T) {
	if _, err := NewPrefix("Z", 0, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewPrefix("Z", 5, 6); err == nil {
		t.Error("steps > width accepted")
	}
	if _, err := NewPrefix("Z", 5, 0); err == nil {
		t.Error("zero steps accepted")
	}
	p, _ := NewPrefix("Z", 5, 2)
	if _, err := p.Generalize("123", 1); err == nil {
		t.Error("wrong-width value accepted")
	}
	if _, err := p.Generalize("12345", 3); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := p.Generalize("12345", -1); err == nil {
		t.Error("negative level accepted")
	}
}

// TestFigure1SexFlat reproduces the Sex hierarchy: S0={M,F}, S1=Person.
func TestFigure1SexFlat(t *testing.T) {
	f := NewFlat("Sex")
	f.Top = "Person"
	for _, v := range []string{"M", "F"} {
		got, err := f.Generalize(v, 1)
		if err != nil || got != "Person" {
			t.Errorf("Generalize(%q,1) = %q, %v", v, got, err)
		}
		got, err = f.Generalize(v, 0)
		if err != nil || got != v {
			t.Errorf("Generalize(%q,0) = %q, %v", v, got, err)
		}
	}
	plain := NewFlat("X")
	got, _ := plain.Generalize("anything", 1)
	if got != Suppressed {
		t.Errorf("default top = %q, want %q", got, Suppressed)
	}
	if plain.Height() != 1 {
		t.Errorf("Height = %d", plain.Height())
	}
	if _, err := plain.Generalize("x", 2); err == nil {
		t.Error("level 2 accepted on flat hierarchy")
	}
	if plain.LevelName(0) != "ground" || plain.LevelName(1) == "" {
		t.Error("LevelName broken")
	}
}

// TestTable7AgeInterval reproduces Table 7's Age hierarchy: 10-year
// ranges, then <50 / >=50, then one group.
func TestTable7AgeInterval(t *testing.T) {
	h, err := NewInterval("Age", []IntervalLevel{
		DecadeLevel("10-years ranges", 17, 90, 10),
		{Name: "<50 and >=50 groups", Cuts: []int64{50}, Labels: []string{"<50", ">=50"}},
		{Name: "one group", Cuts: nil, Labels: []string{Suppressed}},
	})
	if err != nil {
		t.Fatalf("NewInterval: %v", err)
	}
	if h.Height() != 3 {
		t.Fatalf("Height = %d, want 3", h.Height())
	}
	cases := []struct {
		value string
		level int
		want  string
	}{
		{"17", 1, "10-19"},
		{"29", 1, "20-29"},
		{"50", 1, "50-59"},
		{"90", 1, "90-99"},
		{"49", 2, "<50"},
		{"50", 2, ">=50"},
		{"90", 2, ">=50"},
		{"17", 3, "*"},
		{"42", 0, "42"},
	}
	for _, c := range cases {
		got, err := h.Generalize(c.value, c.level)
		if err != nil || got != c.want {
			t.Errorf("Generalize(%q,%d) = %q, %v; want %q", c.value, c.level, got, err, c.want)
		}
	}
}

func TestIntervalValidation(t *testing.T) {
	// Non-increasing cuts.
	if _, err := NewInterval("X", []IntervalLevel{{Cuts: []int64{5, 5}}}); err == nil {
		t.Error("non-increasing cuts accepted")
	}
	// Level 2 cut not present in level 1: not a coarsening.
	if _, err := NewInterval("X", []IntervalLevel{
		{Cuts: []int64{10, 20}},
		{Cuts: []int64{15}},
	}); err == nil {
		t.Error("non-coarsening level accepted")
	}
	// Coarsening is fine.
	if _, err := NewInterval("X", []IntervalLevel{
		{Cuts: []int64{10, 20}},
		{Cuts: []int64{20}},
	}); err != nil {
		t.Errorf("valid coarsening rejected: %v", err)
	}
	// Label arity mismatch.
	if _, err := NewInterval("X", []IntervalLevel{
		{Cuts: []int64{10}, Labels: []string{"only-one"}},
	}); err == nil {
		t.Error("label arity mismatch accepted")
	}
	// Empty hierarchy.
	if _, err := NewInterval("X", nil); err == nil {
		t.Error("empty interval hierarchy accepted")
	}
	h, _ := NewInterval("X", []IntervalLevel{{Cuts: []int64{10}}})
	if _, err := h.Generalize("not-a-number", 1); err == nil {
		t.Error("non-numeric value accepted")
	}
	got, _ := h.Generalize("3", 1)
	if got != "<10" {
		t.Errorf("derived label = %q, want <10", got)
	}
	got, _ = h.Generalize("10", 1)
	if got != ">=10" {
		t.Errorf("derived label = %q, want >=10", got)
	}
	if h.LevelName(0) != "ground" || h.LevelName(1) != "level 1" {
		t.Error("LevelName broken")
	}
}

func TestDecadeLevelCoversRange(t *testing.T) {
	l := DecadeLevel("d", 17, 90, 10)
	// 17..90 spans buckets 10-19 .. 90-99: 9 buckets, 8 cuts.
	if len(l.Cuts) != 8 || len(l.Labels) != 9 {
		t.Errorf("cuts=%d labels=%d, want 8/9", len(l.Cuts), len(l.Labels))
	}
	if l.Labels[0] != "10-19" || l.Labels[8] != "90-99" {
		t.Errorf("labels = %v", l.Labels)
	}
}

// maritalTree builds Table 7's MaritalStatus hierarchy: 7 ground values
// -> {Single, Married} -> one group.
func maritalTree(t *testing.T) *Tree {
	t.Helper()
	tree, err := NewTree("MaritalStatus", map[string][]string{
		"Never-married":         {"Single", Suppressed},
		"Divorced":              {"Single", Suppressed},
		"Separated":             {"Single", Suppressed},
		"Widowed":               {"Single", Suppressed},
		"Married-civ-spouse":    {"Married", Suppressed},
		"Married-spouse-absent": {"Married", Suppressed},
		"Married-AF-spouse":     {"Married", Suppressed},
	})
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return tree
}

func TestTable7MaritalTree(t *testing.T) {
	tree := maritalTree(t)
	if tree.Height() != 2 {
		t.Fatalf("Height = %d, want 2", tree.Height())
	}
	got, err := tree.Generalize("Divorced", 1)
	if err != nil || got != "Single" {
		t.Errorf("Divorced@1 = %q, %v", got, err)
	}
	got, _ = tree.Generalize("Married-AF-spouse", 1)
	if got != "Married" {
		t.Errorf("Married-AF-spouse@1 = %q", got)
	}
	got, _ = tree.Generalize("Widowed", 2)
	if got != Suppressed {
		t.Errorf("Widowed@2 = %q", got)
	}
	if _, err := tree.Generalize("Unknown", 1); err == nil {
		t.Error("unknown ground value accepted")
	}
	if tree.DomainSize(0) != 7 || tree.DomainSize(1) != 2 || tree.DomainSize(2) != 1 {
		t.Errorf("DomainSizes = %d/%d/%d, want 7/2/1",
			tree.DomainSize(0), tree.DomainSize(1), tree.DomainSize(2))
	}
	if tree.DomainSize(3) != 0 || tree.DomainSize(-1) != 0 {
		t.Error("out-of-range DomainSize should be 0")
	}
	gv := tree.GroundValues()
	if len(gv) != 7 || gv[0] != "Divorced" {
		t.Errorf("GroundValues = %v", gv)
	}
}

func TestTreeValidation(t *testing.T) {
	// Chains of unequal length.
	if _, err := NewTree("X", map[string][]string{
		"a": {"g1", "top"},
		"b": {"g1"},
	}); err == nil {
		t.Error("unequal chain lengths accepted")
	}
	// Inconsistent: same level-1 label, different level-2 labels.
	if _, err := NewTree("X", map[string][]string{
		"a": {"g1", "t1"},
		"b": {"g1", "t2"},
	}); err == nil {
		t.Error("inconsistent tree accepted")
	}
	// Empty.
	if _, err := NewTree("X", map[string][]string{}); err == nil {
		t.Error("empty tree accepted")
	}
	if _, err := NewTree("X", map[string][]string{"a": {}}); err == nil {
		t.Error("zero-height tree accepted")
	}
}

func TestTreeLevelNames(t *testing.T) {
	tree := maritalTree(t).WithLevelNames("Single or Married", "One group")
	if tree.LevelName(1) != "Single or Married" || tree.LevelName(2) != "One group" {
		t.Error("WithLevelNames broken")
	}
	if tree.LevelName(0) != "ground" {
		t.Error("level 0 name")
	}
}

func TestParseTree(t *testing.T) {
	text := `
# race hierarchy (Table 7)
White;White;White;*
Black;Black;Other;*
Asian-Pac-Islander;Other;Other;*
Amer-Indian-Eskimo;Other;Other;*
Other;Other;Other;*
`
	tree, err := ParseTree("Race", text)
	if err != nil {
		t.Fatalf("ParseTree: %v", err)
	}
	if tree.Height() != 3 {
		t.Fatalf("Height = %d, want 3", tree.Height())
	}
	got, _ := tree.Generalize("Black", 1)
	if got != "Black" {
		t.Errorf("Black@1 = %q", got)
	}
	got, _ = tree.Generalize("Black", 2)
	if got != "Other" {
		t.Errorf("Black@2 = %q", got)
	}
	if tree.DomainSize(1) != 3 || tree.DomainSize(2) != 2 {
		t.Errorf("domain sizes %d/%d, want 3/2", tree.DomainSize(1), tree.DomainSize(2))
	}

	if _, err := ParseTree("X", "onlyvalue\n"); err == nil {
		t.Error("line without levels accepted")
	}
	if _, err := ParseTree("X", "a;b\na;c\n"); err == nil {
		t.Error("duplicate ground value accepted")
	}
}

func TestSet(t *testing.T) {
	zip, _ := NewPrefix("ZipCode", 5, 2)
	sex := NewFlat("Sex")
	s, err := NewSet(zip, sex)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	if !s.Has("ZipCode") || s.Has("Age") {
		t.Error("Has broken")
	}
	if _, err := s.Get("Age"); err == nil {
		t.Error("Get of missing attribute should fail")
	}
	hts, err := s.Heights([]string{"Sex", "ZipCode"})
	if err != nil || hts[0] != 1 || hts[1] != 2 {
		t.Errorf("Heights = %v, %v", hts, err)
	}
	if _, err := s.Heights([]string{"Missing"}); err == nil {
		t.Error("Heights of missing attribute should fail")
	}
	// Duplicates rejected.
	if _, err := NewSet(zip, zip); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSet(nil); err == nil {
		t.Error("nil hierarchy accepted")
	}
}

func TestSetValidate(t *testing.T) {
	zip, _ := NewPrefix("ZipCode", 5, 2)
	s := MustSet(zip, NewFlat("Sex"))
	err := s.Validate(map[string][]string{
		"ZipCode": {"41075", "41076", "43102"},
		"Sex":     {"M", "F"},
	})
	if err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Wrong-width zip fails validation.
	if err := s.Validate(map[string][]string{"ZipCode": {"123"}}); err == nil {
		t.Error("invalid ground value passed validation")
	}
	// Missing hierarchy.
	if err := s.Validate(map[string][]string{"Age": {"1"}}); err == nil {
		t.Error("missing hierarchy passed validation")
	}
}

func TestSetValidateDetectsInconsistency(t *testing.T) {
	// An adversarial hierarchy that violates monotone coarsening:
	// values a,b share level-1 label but diverge at level 2.
	bad := &inconsistentHierarchy{}
	s := MustSet(bad)
	if err := s.Validate(map[string][]string{"Bad": {"a", "b"}}); err == nil {
		t.Error("inconsistent hierarchy passed validation")
	}
	if !s.Has("Bad") {
		t.Error("attribute registration broken")
	}
}

type inconsistentHierarchy struct{}

func (inconsistentHierarchy) Attribute() string { return "Bad" }
func (inconsistentHierarchy) Height() int       { return 2 }
func (inconsistentHierarchy) Generalize(v string, level int) (string, error) {
	switch level {
	case 0:
		return v, nil
	case 1:
		return "same", nil
	default:
		return "top-" + v, nil // diverges: not a function of level-1 label
	}
}
func (inconsistentHierarchy) LevelName(level int) string { return "L" }

// TestIntervalMonotoneCoarseningProperty: for random valid interval
// hierarchies, two values sharing a level-i bucket always share the
// level-i+1 bucket (the generalization-tree property Set.Validate
// enforces), checked over random values.
func TestIntervalMonotoneCoarseningProperty(t *testing.T) {
	f := func(seedRaw int64, nCuts uint8, span uint8) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		hi := int64(span)%80 + 20
		// Level 1: random strictly increasing cuts in (0, hi).
		k := int(nCuts)%6 + 1
		cutSet := make(map[int64]bool)
		for len(cutSet) < k {
			cutSet[rng.Int63n(hi-1)+1] = true
		}
		cuts1 := make([]int64, 0, k)
		for c := range cutSet {
			cuts1 = append(cuts1, c)
		}
		sort.Slice(cuts1, func(a, b int) bool { return cuts1[a] < cuts1[b] })
		// Level 2: a random subset of level 1's cuts (coarsening).
		var cuts2 []int64
		for _, c := range cuts1 {
			if rng.Intn(2) == 0 {
				cuts2 = append(cuts2, c)
			}
		}
		h, err := NewInterval("X", []IntervalLevel{
			{Cuts: cuts1},
			{Cuts: cuts2},
		})
		if err != nil {
			return false
		}
		// Sample values; equal level-1 labels must imply equal level-2
		// labels.
		byL1 := make(map[string]string)
		for i := 0; i < 60; i++ {
			v := IVStr(rng.Int63n(hi + 10))
			l1, err1 := h.Generalize(v, 1)
			l2, err2 := h.Generalize(v, 2)
			if err1 != nil || err2 != nil {
				return false
			}
			if prev, ok := byL1[l1]; ok && prev != l2 {
				return false
			}
			byL1[l1] = l2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// IVStr formats an int like the table engine would.
func IVStr(v int64) string { return strconv.FormatInt(v, 10) }

// TestPrefixStepsMonotoneProperty: deeper suppression levels always
// merge (never split) the partition induced by shallower levels.
func TestPrefixStepsMonotoneProperty(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		h, err := NewPrefixSteps("Z", 5, []int{1 + rng.Intn(2), 3 + rng.Intn(3)})
		if err != nil {
			return false
		}
		byL1 := make(map[string]string)
		for i := 0; i < 50; i++ {
			v := fmt.Sprintf("%05d", rng.Intn(100000))
			l1, err1 := h.Generalize(v, 1)
			l2, err2 := h.Generalize(v, 2)
			if err1 != nil || err2 != nil {
				return false
			}
			if prev, ok := byL1[l1]; ok && prev != l2 {
				return false
			}
			byL1[l1] = l2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
