package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point, recorded from
// outside the program. A span that times a tight loop of very short calls
// covers Calls calls. The program has no spans of its own yet, so a call a
// layer makes inside another cannot be timed where it happens; the traced
// replays re-time such calls right after their parent, on the same inputs,
// and record them as the parent's children (Shadow).
type span struct {
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index into the dump; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"`
	Shadow bool   `json:"shadow,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the dump at the end of the run.
// Spans may be recorded from several goroutines (job slices run on the
// manager's runners).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a finished span and returns its index.
func (t *tracer) record(s span) int {
	if s.Calls == 0 {
		s.Calls = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// open starts a span whose end is filled in by close; children recorded
// meanwhile name its index as their parent.
func (t *tracer) open(name, class string, req, parent int) int {
	return t.record(span{Name: name, Class: class, Req: req, Parent: parent, Start: t.now(), End: -1})
}

func (t *tracer) close(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// do times f as one span of calls calls.
func (t *tracer) do(name, class string, req, parent, calls int, shadow bool, f func()) int {
	start := t.now()
	f()
	end := t.now()
	return t.record(span{Name: name, Class: class, Req: req, Parent: parent, Start: start, End: end, Calls: calls, Shadow: shadow})
}

// selfTimes returns each span's duration minus the durations of its
// children.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// group is every span of one (name, class).
type group struct {
	name, class      string
	spans, calls     int
	incl, self       time.Duration
	perCall, perSelf []float64 // ns per call, per span
}

func groups(spans []span) []*group {
	self := selfTimes(spans)
	byKey := make(map[string]*group)
	var out []*group
	for i, s := range spans {
		key := s.Name + "\x00" + s.Class
		g := byKey[key]
		if g == nil {
			g = &group{name: s.Name, class: s.Class}
			byKey[key] = g
			out = append(out, g)
		}
		g.spans++
		g.calls += s.Calls
		g.incl += s.dur()
		g.self += self[i]
		g.perCall = append(g.perCall, float64(s.dur())/float64(s.Calls))
		g.perSelf = append(g.perSelf, float64(self[i])/float64(s.Calls))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].class < out[j].class
	})
	return out
}

// writeTable prints count, inclusive and self time per (name, class).
func writeTable(w io.Writer, title string, spans []span) {
	fmt.Fprintf(w, "== %s: %d spans\n", title, len(spans))
	fmt.Fprintf(w, "%-44s %-10s %8s %12s %12s %12s %12s\n", "span", "class", "calls", "incl_ms", "self_ms", "med_us/call", "med_self_us")
	for _, g := range groups(spans) {
		fmt.Fprintf(w, "%-44s %-10s %8d %12.3f %12.3f %12.3f %12.3f\n", g.name, g.class, g.calls,
			float64(g.incl)/1e6, float64(g.self)/1e6, median(g.perCall)/1e3, median(g.perSelf)/1e3)
	}
}

// dump writes the table and the spans beside each other in dir.
func dump(dir, base string, spans []span) (string, error) {
	raw, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(dir+"/"+base+".spans.json", raw, 0o644); err != nil {
		return "", err
	}
	var b strings.Builder
	writeTable(&b, base, spans)
	path := dir + "/" + base + ".table.txt"
	return b.String(), os.WriteFile(path, []byte(b.String()), 0o644)
}
