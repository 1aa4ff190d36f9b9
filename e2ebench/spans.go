package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed layer call of the traced run.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root span
	Op     int    `json:"op"`     // operation index the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer still times spans but keeps none, which is how the
// same replay code runs untraced.
type tracer struct {
	t0     time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int64{}} }

// count adds n to a named counter, recorded at the same layer boundary
// as the spans around it.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// open is a span that has started and not yet ended.
type open struct {
	id, parent int64
	op         int
	name       string
	start      time.Time
}

// begin starts a span under parent (0 for a root).
func (t *tracer) begin(op int, parent int64, name string) open {
	o := open{parent: parent, op: op, name: name}
	if t != nil {
		o.id = t.ids.Add(1)
	}
	o.start = time.Now()
	return o
}

// end closes o and returns its duration.
func (t *tracer) end(o open) time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if t == nil {
		return d
	}
	s := span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name,
		Start: int64(o.start.Sub(t.t0)), End: int64(now.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return d
}

// write emits the spans as JSON lines, in start order.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// layerTime sums the inclusive and self time of every span per name,
// or holds a counter's sum. A span's self time is its duration minus
// the part of its interval that its children cover (children of one
// span may run concurrently, so the covered part is the union of their
// intervals).
type layerTime struct {
	Count      int
	Total, Own time.Duration
	Sum        int64 // counters only
}

func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Own += d - covered(children[s.ID])
	}
	for name, n := range t.counts {
		out[name] = &layerTime{Sum: n}
	}
	return out
}

// perOp is a span's mean inclusive time per replayed operation, in ms.
func perOp(l map[string]*layerTime, name string, ops int) float64 {
	if l[name] == nil || ops == 0 {
		return 0
	}
	return ms(l[name].Total) / float64(ops)
}

// perOpCount is a counter's mean per replayed operation.
func perOpCount(l map[string]*layerTime, name string, ops int) float64 {
	if l[name] == nil || ops == 0 {
		return 0
	}
	return float64(l[name].Sum) / float64(ops)
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var sum int64
	curS, curE := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > curE {
			sum += curE - curS
			curS, curE = s.Start, s.End
		} else if s.End > curE {
			curE = s.End
		}
	}
	sum += curE - curS
	return time.Duration(sum)
}

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
