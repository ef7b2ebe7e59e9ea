package obs

import (
	"testing"
	"time"
)

func TestSamplerNilIsDisabled(t *testing.T) {
	if s := NewSampler(nil, time.Millisecond, 4); s != nil {
		t.Fatal("sampler over a nil recorder must be nil")
	}
	var s *Sampler
	s.Start()
	s.Poll()
	s.Stop()
	if s.Samples() != nil || s.Total() != 0 || s.Interval() != 0 {
		t.Fatal("nil sampler misbehaved")
	}
}

func TestSamplerDefaults(t *testing.T) {
	s := NewSampler(NewRecorder(), 0, 0)
	if s.Interval() != 250*time.Millisecond {
		t.Fatalf("default interval = %v", s.Interval())
	}
	if c := cap(s.ring); c != 512 {
		t.Fatalf("default capacity = %d", c)
	}
}

// TestSamplerRingWraparound: more polls than capacity must keep only
// the most recent window, in chronological order, while Total keeps
// counting.
func TestSamplerRingWraparound(t *testing.T) {
	rec := NewRecorder()
	s := NewSampler(rec, time.Second, 4)
	const polls = 7
	for i := 0; i < polls; i++ {
		rec.NodeEvaluated(VerdictViolated, time.Microsecond)
		s.Poll()
	}
	if s.Total() != polls {
		t.Fatalf("total = %d, want %d", s.Total(), polls)
	}
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("retained = %d, want ring capacity 4", len(got))
	}
	// Poll i sees i+1 cumulative nodes; the retained window is the last
	// four polls: 4, 5, 6, 7.
	for i, smp := range got {
		if want := int64(polls - 3 + i); smp.Nodes != want {
			t.Fatalf("sample %d nodes = %d, want %d", i, smp.Nodes, want)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].AtNs < got[i-1].AtNs {
			t.Fatalf("samples out of order: %d before %d", got[i].AtNs, got[i-1].AtNs)
		}
	}
}

// TestSamplerIntervalDeltas: rates must be computed over the interval
// since the previous sample, not cumulatively.
func TestSamplerIntervalDeltas(t *testing.T) {
	rec := NewRecorder()
	s := NewSampler(rec, time.Second, 8)

	rec.RollupMerge()
	rec.RollupRowScan()
	s.Poll() // interval 1: 1 merge / 2 lookups

	rec.RollupMerge()
	rec.RollupReuse()
	rec.RollupMerge()
	rec.RollupRowScan()
	rec.NoteMem(50, 200)
	s.Poll() // interval 2: 2 merges + 1 reuse / 4 lookups

	got := s.Samples()
	if len(got) != 2 {
		t.Fatalf("samples = %d", len(got))
	}
	if got[0].RollupReuseRate != 0.5 {
		t.Fatalf("interval-1 rollup reuse = %v, want 0.5", got[0].RollupReuseRate)
	}
	if got[1].RollupReuseRate != 0.75 {
		t.Fatalf("interval-2 rollup reuse = %v, want 0.75 (delta, not cumulative)", got[1].RollupReuseRate)
	}
	if got[0].MemHeadroom != 1 {
		t.Fatalf("unbudgeted headroom = %v, want 1", got[0].MemHeadroom)
	}
	if got[1].MemHeadroom != 0.75 {
		t.Fatalf("budgeted headroom = %v, want 0.75", got[1].MemHeadroom)
	}
}

// TestSamplerTicker: Start must sample on its own without Poll calls.
func TestSamplerTicker(t *testing.T) {
	rec := NewRecorder()
	s := NewSampler(rec, time.Millisecond, 32)
	s.Start()
	deadline := time.Now().Add(time.Second)
	for s.Total() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if s.Total() == 0 {
		t.Fatal("ticker took no samples in a second")
	}
	s.Stop() // second Stop must be safe
}
