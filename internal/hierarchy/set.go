package hierarchy

import "fmt"

// Set is a collection of hierarchies keyed by attribute name — the
// per-dataset configuration a data owner supplies before masking.
type Set struct {
	byAttr map[string]Hierarchy
}

// NewSet builds a set from hierarchies; duplicate attributes are an
// error.
func NewSet(hs ...Hierarchy) (*Set, error) {
	s := &Set{byAttr: make(map[string]Hierarchy, len(hs))}
	for _, h := range hs {
		if h == nil {
			return nil, fmt.Errorf("hierarchy: nil hierarchy in set")
		}
		if _, dup := s.byAttr[h.Attribute()]; dup {
			return nil, fmt.Errorf("hierarchy: duplicate hierarchy for attribute %q", h.Attribute())
		}
		s.byAttr[h.Attribute()] = h
	}
	return s, nil
}

// MustSet is NewSet that panics on error, for static configurations.
func MustSet(hs ...Hierarchy) *Set {
	s, err := NewSet(hs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Get returns the hierarchy for an attribute.
func (s *Set) Get(attr string) (Hierarchy, error) {
	h, ok := s.byAttr[attr]
	if !ok {
		return nil, fmt.Errorf("hierarchy: no hierarchy for attribute %q", attr)
	}
	return h, nil
}

// Has reports whether the set covers the attribute.
func (s *Set) Has(attr string) bool { _, ok := s.byAttr[attr]; return ok }

// Heights returns the hierarchy heights for the given attributes in
// order — the dimension vector of the generalization lattice.
func (s *Set) Heights(attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		h, err := s.Get(a)
		if err != nil {
			return nil, err
		}
		out[i] = h.Height()
	}
	return out, nil
}

// Validate checks that each hierarchy behaves as a proper domain
// generalization hierarchy over the supplied sample of ground values:
// generalization is defined at every level, and values equal at level i
// stay equal at level i+1 (monotone coarsening).
func (s *Set) Validate(ground map[string][]string) error {
	for attr, values := range ground {
		h, err := s.Get(attr)
		if err != nil {
			return err
		}
		for lvl := 0; lvl <= h.Height(); lvl++ {
			for _, v := range values {
				if _, err := h.Generalize(v, lvl); err != nil {
					return fmt.Errorf("hierarchy: validate %s level %d: %w", attr, lvl, err)
				}
			}
		}
		for lvl := 0; lvl < h.Height(); lvl++ {
			// parent[label at lvl] -> label at lvl+1 must be a function.
			parent := make(map[string]string)
			for _, v := range values {
				lo, _ := h.Generalize(v, lvl)
				hi, _ := h.Generalize(v, lvl+1)
				if up, ok := parent[lo]; ok && up != hi {
					return fmt.Errorf("hierarchy: %s: level %d label %q generalizes to both %q and %q at level %d",
						attr, lvl, lo, up, hi, lvl+1)
				}
				parent[lo] = hi
			}
		}
	}
	return nil
}
