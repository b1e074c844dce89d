package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Start and End are offsets from the tracer's
// creation; Parent is 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per span site.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration of every finished span named name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// meanDuration of the spans named name (0 when there are none).
func meanDuration(spans []span, name string) time.Duration {
	d := durations(spans, name)
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// selfTimes sums, per span name, the part of each span's interval that none
// of its children covers. Children may overlap one another (a fan-out
// records concurrent sends), so the covered part is the length of the union
// of the child intervals clipped to the parent, never their plain sum.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans stores the spans as JSON under dir.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
