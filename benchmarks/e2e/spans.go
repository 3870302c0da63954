package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package around
// the call (the program itself carries no stage clock yet). Times are
// microseconds since the log was created. Parent is the id of the span that
// caused this one, 0 for a root; the spans of one job share OpID.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"`
	OpID   int     `json:"op_id"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// tracing off: begin and end do nothing, so the untraced pass runs the same
// code without the bookkeeping.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() float64 { return float64(time.Since(l.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id (0 when tracing is off).
func (l *spanLog) begin(name string, parent, opID int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Name: name, Start: l.now(), Parent: parent, OpID: opID})
	return id
}

// end closes a span and returns its duration in seconds.
func (l *spanLog) end(id int) float64 {
	if l == nil || id == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = l.now()
	return (s.End - s.Start) / 1e6
}

// selfTime is a span name's totals over a log.
type selfTime struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes folds the log by span name. A span's self time is its duration
// minus the part of its interval that its child spans cover; children of
// one parent may overlap (two clients under one run span), so the covered
// part is the length of the union of the child intervals.
func (l *spanLog) selfTimes() []selfTime {
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range l.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMS += (s.End - s.Start) / 1e3
		st.SelfMS += (s.End - s.Start - covered) / 1e3
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// attributedFrac is the share of the named spans' time that their child
// spans cover: how much of a job's wall clock the trace gives an owner.
func (l *spanLog) attributedFrac(name string) float64 {
	for _, st := range l.selfTimes() {
		if st.Name == name {
			return ratio(st.TotalMS-st.SelfMS, st.TotalMS)
		}
	}
	return 0
}
