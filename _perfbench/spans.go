package main

import (
	"sort"
	"time"
)

// spans records host-time spans around the benchmark's calls into the
// simulator's layers. A nil *spans records nothing, so the untraced job
// runs the same code with tracing off. Spans stay in memory until the job
// ends; the parent prints them and turns them into per-layer metrics.
type spans struct {
	t0    time.Time
	list  []span
	stack []int
}

// span is one recorded interval: host offsets from the job's start, and
// the index of the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its id.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.list = append(s.list, span{Name: name, Parent: parent, Start: time.Since(s.t0)})
	id := len(s.list) - 1
	s.stack = append(s.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].End = time.Since(s.t0)
	s.stack = s.stack[:len(s.stack)-1]
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is the total minus the time covered by child spans.
	SelfS float64 `json:"self_s"`
	// Durations are the individual span lengths in seconds, in call order.
	Durations []float64 `json:"durations_s"`
}

// stats reduces the recorded spans to per-name totals and self times,
// sorted by name.
func (s *spans) stats() []spanStat {
	if s == nil {
		return nil
	}
	child := make([]time.Duration, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	byName := map[string]*spanStat{}
	var names []string
	for i, sp := range s.list {
		st := byName[sp.Name]
		if st == nil {
			st = &spanStat{Name: sp.Name}
			byName[sp.Name] = st
			names = append(names, sp.Name)
		}
		d := sp.End - sp.Start
		st.Count++
		st.TotalS += d.Seconds()
		st.SelfS += (d - child[i]).Seconds()
		st.Durations = append(st.Durations, d.Seconds())
	}
	sort.Strings(names)
	out := make([]spanStat, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}
