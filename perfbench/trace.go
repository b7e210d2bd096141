package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Req;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    string        `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory; they are written out once, at exit. A
// nil *tracer records nothing, which is how untraced operations run. It
// is used from one goroutine: every span the benchmark records wraps a
// call made from the client's own goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: time.Since(t.epoch)})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch)
	return s.dur()
}

// add records an already measured interval as a closed span.
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval covered
// by its children. Children may nest or overlap one another; the covered
// part is the length of the union of their intervals, clipped to the
// parent's.
func selfTime(parent span, children []span) time.Duration {
	type ivl struct{ lo, hi time.Duration }
	var ivls []ivl
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivls = append(ivls, ivl{lo, hi})
		}
	}
	slices.SortFunc(ivls, func(a, b ivl) int { return cmp.Compare(a.lo, b.lo) })
	var covered time.Duration
	var cur ivl
	for i, v := range ivls {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivls) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// selfTimes computes every span's self time from its direct children.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans)+1)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = selfTime(s, kids[s.ID])
	}
	return out
}

// write stores the spans, with their self times, as JSON lines in path.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		rec := struct {
			span
			SelfNs time.Duration `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
