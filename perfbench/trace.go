package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// span is one timed interval around a call the benchmark makes into
// the program (or, for engine stages, one LastBatchStats stage time
// attached under the call that produced it). Times are nanoseconds
// since the tracer's origin; parent is an index into the span list
// (-1 for a root); req groups the spans of one request or batch.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its index (for children), or -1 on a
// nil tracer.
func (t *tracer) add(name string, start, end time.Time, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		name:   name,
		start:  int64(start.Sub(t.origin)),
		end:    int64(end.Sub(t.origin)),
		parent: parent,
		req:    req,
	})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// stageSpan names each engine stage by the layer (module) that runs it.
var stageSpan = map[string]string{
	"sort":        "core.sort",
	"qsat-phase1": "core.qsat1",
	"qsat-phase2": "core.qsat2",
	"cache":       "cache.pass",
	"find":        "palm.find",
	"evaluate":    "palm.evaluate",
	"modify":      "palm.modify",
}

// stages attaches st's per-stage times as children of parent. The
// engine reports durations only, so the children are laid end to end
// from the parent's start in pipeline order.
func (t *tracer) stages(parent int32, start time.Time, st *stats.Batch, req int64) {
	if t == nil {
		return
	}
	at := start
	for _, s := range stats.Stages() {
		d := st.Elapsed[s]
		if d <= 0 {
			continue
		}
		t.add(stageSpan[s.String()], at, at.Add(d), parent, req)
		at = at.Add(d)
	}
}

// selfTime is one span name's aggregate: count, total and self time
// (duration minus the time its children cover).
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates self time per span name, largest first.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	by := map[string]*selfTime{}
	for i, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &selfTime{name: s.name}
			by[s.name] = a
		}
		a.count++
		a.total += time.Duration(s.end - s.start)
		a.self += time.Duration(s.end - s.start - child[i])
	}
	out := make([]selfTime, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d}`+"\n",
			s.name, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the per-layer self-time table.
func printSelfTimes(w io.Writer, rows []selfTime) {
	var sum time.Duration
	for _, r := range rows {
		sum += r.self
	}
	fmt.Fprintf(w, "%-16s %9s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9d %12.1f %12.1f %6.1f%%\n",
			r.name, r.count, ms(r.total), ms(r.self), 100*frac(float64(r.self), float64(sum)))
	}
}
