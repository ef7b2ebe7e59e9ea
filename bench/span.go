package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the id of the span that caused it (0 for the op itself).
// Times are Unix nanoseconds so spans recorded in a child process line
// up with the parent's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced ops run the same code with tracing off.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id.
func (l *spanLog) begin(op, parent int, name string, at time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: at.UnixNano()})
	return id
}

// finish closes the span begin returned.
func (l *spanLog) finish(id int, at time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = at.UnixNano()
	l.mu.Unlock()
}

// call runs fn inside a span.
func (l *spanLog) call(op, parent int, name string, fn func() error) error {
	id := l.begin(op, parent, name, time.Now())
	err := fn()
	l.finish(id, time.Now())
	return err
}

// adopt appends spans recorded elsewhere (a child process) under parent,
// renumbering their ids.
func (l *spanLog) adopt(op, parent int, child []span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	base := len(l.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Op = op
		l.spans = append(l.spans, s)
	}
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// checkNesting verifies that every span is closed, lies inside its
// parent, and keeps a non-negative self time.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] lies outside its parent %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			return fmt.Errorf("span %d %s has negative self time %d ns", id, byID[id].Name, self)
		}
	}
	return nil
}

// selfTimes maps each span id to its duration minus the part of that
// interval its children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.Start > end {
			total += s.dur()
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// coverage is the share of the ops' wall time their child spans
// account for: how much of what an op waits for the trace explains.
func coverage(spans []span) float64 {
	kids := make(map[int][]span)
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var wall, cov int64
	for _, r := range roots {
		wall += r.dur()
		cov += covered(kids[r.ID])
	}
	if wall == 0 {
		return 0
	}
	return float64(cov) / float64(wall)
}

// durationsMs lists the durations of the spans with this name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// perOpMs is the total duration of the spans with this name divided by
// the number of ops.
func perOpMs(spans []span, name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	var sum float64
	for _, d := range durationsMs(spans, name) {
		sum += d
	}
	return sum / float64(ops)
}
