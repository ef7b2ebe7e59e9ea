package table

import (
	"bytes"
	"slices"
	"testing"
)

// TestByteGroupCollisions drives the byte-key lookup once with a hash
// that sends every key to one value, so every lookup walks the
// collision chain, and once with keyHash. Either way ids follow first
// appearance, a repeated key finds its group (a key that is a prefix of
// another included), sizes count every occurrence, reps keep each
// group's first position, and the slab holds each distinct key once.
func TestByteGroupCollisions(t *testing.T) {
	keys := [][]byte{{1}, {1, 2}, {}, {2, 1}, {1}, {}, {0x80, 0x01}, {1, 2}, {2, 1}}
	wantIDs := []int32{0, 1, 2, 3, 0, 2, 4, 1, 3}
	wantSizes := []int32{2, 2, 2, 2, 1}
	wantReps := []int32{0, 1, 2, 3, 6}
	wantSlab := []byte{1, 1, 2, 2, 1, 0x80, 0x01}
	for name, hash := range map[string]func([]byte) uint64{
		"one hash": func([]byte) uint64 { return 42 },
		"keyHash":  keyHash,
	} {
		t.Run(name, func(t *testing.T) {
			a := getStatsArena()
			defer a.release()
			for i, k := range keys {
				a.keyBytes = append(a.keyBytes, k...)
				if g := a.byteGroup(hash, int32(i)); g != wantIDs[i] {
					t.Fatalf("key %d %v: group %d, want %d", i, k, g, wantIDs[i])
				}
			}
			if !slices.Equal(a.sizes, wantSizes) || !slices.Equal(a.reps, wantReps) {
				t.Errorf("sizes %v reps %v, want %v %v", a.sizes, a.reps, wantSizes, wantReps)
			}
			if !bytes.Equal(a.keyBytes, wantSlab) {
				t.Errorf("key slab %v, want %v", a.keyBytes, wantSlab)
			}
		})
	}
}
