package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the harness around the
// layer's public entry point. Spans of one campaign point or one request
// share Op; Parent is the ID of the span that caused this one (0 for a
// root).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Op     int64         `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory; they are written out once, at exit. A nil
// *Tracer records nothing, so untraced runs pass nil through the same
// code paths.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span. The returned value is closed with End.
func (t *Tracer) Begin(name string, parent, op int64) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return Span{ID: id, Parent: parent, Name: name, Op: op, Start: time.Since(t.epoch)}
}

// End closes s and records it.
func (t *Tracer) End(s Span) {
	if t == nil {
		return
	}
	s.End = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// BeginAt opens a span that started at a given moment, such as a request
// timed from when it was due rather than when it was sent.
func (t *Tracer) BeginAt(name string, parent, op int64, at time.Time) Span {
	s := t.Begin(name, parent, op)
	if t != nil {
		s.Start = at.Sub(t.epoch)
	}
	return s
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes every span as one JSON line to path.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children may overlap each other
// (concurrent calls under one parent), so the covered part is the union
// of their intervals, clipped to the parent.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// spanStats groups spans by name.
type spanStats struct {
	durs []time.Duration
	self time.Duration
}

// byName folds spans into per-name duration lists and self-time totals.
func byName(spans []Span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.durs = append(st.durs, s.Dur())
		st.self += self[s.ID]
	}
	return out
}

// count, total and selfTime read a byName map, treating a missing name
// as no spans.
func (st *spanStats) count() int {
	if st == nil {
		return 0
	}
	return len(st.durs)
}

func (st *spanStats) total() time.Duration {
	if st == nil {
		return 0
	}
	var t time.Duration
	for _, d := range st.durs {
		t += d
	}
	return t
}

func (st *spanStats) selfTime() time.Duration {
	if st == nil {
		return 0
	}
	return st.self
}

// pctSpec names a percentile metric read off the spans of one name.
type pctSpec struct {
	metric, span string
	q            float64
	unit         time.Duration
}

// setPcts sets each metric to its percentile, in its unit, of the
// durations of its spans. A span name with no spans is left unset — the
// workload never entered that layer — and one with too few spans for the
// percentile by the tail rule fails the run.
func (m metrics) setPcts(st map[string]*spanStats, specs ...pctSpec) error {
	for _, p := range specs {
		s := st[p.span]
		if s.count() == 0 {
			continue
		}
		v, err := tail(durations(s.durs, p.unit), p.q)
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		m[p.metric] = v
	}
	return nil
}
