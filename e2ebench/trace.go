package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one traced call into a layer, recorded by the benchmark
// around the public function it calls. Spans of one command share Req;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start"` // nanoseconds since the run started
	End    int64  `json:"end"`
}

// tracer records spans for one goroutine. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	base  time.Time
	ids   *atomic.Int64
	spans []span
}

func newTracer(base time.Time, ids *atomic.Int64) *tracer {
	return &tracer{base: base, ids: ids}
}

// id allocates a span ID (0 when tracing is off).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span with a pre-allocated ID.
func (t *tracer) add(id int64, name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
}

// rec records a finished span and returns its ID.
func (t *tracer) rec(name string, parent, req int64, start, end time.Time) int64 {
	id := t.id()
	t.add(id, name, parent, req, start, end)
	return id
}

// spanStats summarises all spans of one name.
type spanStats struct {
	name  string
	durUs []float64 // per-span duration
	self  float64   // summed self time, microseconds
}

// summarize folds spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover.
func summarize(spans []span) map[string]*spanStats {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{name: s.Name}
			out[s.Name] = st
		}
		dur := float64(s.End-s.Start) / 1e3
		st.durUs = append(st.durUs, dur)
		st.self += dur - float64(covered(s, children[s.ID]))/1e3
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSpanTable prints count, median and 99th percentile duration, and
// total self time for every span name.
func printSpanTable(w io.Writer, st map[string]*spanStats) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %8s %12s %12s %14s\n", "span", "count", "p50_us", "p99_us", "self_total_ms")
	for _, n := range names {
		s := st[n]
		d := append([]float64(nil), s.durUs...)
		fmt.Fprintf(w, "%-26s %8d %12.1f %12.1f %14.1f\n", n, len(d),
			percentile(d, 50), percentile(d, 99), s.self/1e3)
	}
}
