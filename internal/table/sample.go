package table

import (
	"fmt"
	"math/rand"
	"sort"
)

// Sample draws a simple random sample of n rows without replacement,
// using the given seed for reproducibility. The sampled rows keep their
// original relative order so repeated runs are stable.
func (t *Table) Sample(n int, seed int64) (*Table, error) {
	if n < 0 {
		return nil, fmt.Errorf("table: negative sample size %d", n)
	}
	if n >= t.nrows {
		return t.Clone(), nil
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(t.nrows)[:n]
	sort.Ints(perm)
	return t.Gather(perm)
}

// Shuffle returns a new table with rows in random order.
func (t *Table) Shuffle(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(t.nrows)
	out, _ := t.Gather(perm)
	return out
}
