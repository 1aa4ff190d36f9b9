package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/capture"
	"repro/internal/trace"
)

// The record workload's make-up: each recorded run has recordThreads
// goroutines, each driving a call tree whose spine is recordDepth frames
// deep, with recordLeaves leaf calls made at every spine level before it
// descends. Capture reads the goroutine id from a stack dump on every
// Enter, so its per-call cost depends on stack depth, and the depth is
// part of the input.
const (
	recordThreads = 2
	recordDepth   = 32
	recordLeaves  = 15
	recordCalls   = recordDepth * (1 + recordLeaves) // per goroutine
	recordName    = "bench"

	recordWarmRuns = 25
)

// record is one recorded program run per operation: capture.Start on a
// fresh directory, goroutines started with Recorder.Go driving a fixed
// call tree through Enter and its exit hook, then Close, which writes
// the RSEG segments.
type record struct {
	e     *env
	spine [recordThreads][recordDepth]string
	leaf  [recordThreads][recordLeaves]string
	self  [recordThreads]capture.Repr
	arg   [recordDepth]capture.Repr
	want  map[trace.ThreadID][]step
}

func newRecord(e *env) workload { return &record{e: e} }

func (w *record) clients() int    { return 1 }
func (w *record) round() int      { return 1 }
func (w *record) tail() float64   { return 95 }
func (w *record) viaServer() bool { return false }

func (w *record) prepare(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.want = map[trace.ThreadID][]step{}
	for g := 0; g < recordThreads; g++ {
		tag := rng.Intn(1 << 20)
		class := fmt.Sprintf("Svc%dx%d", g, tag)
		w.self[g] = capture.Obj(int64(rng.Intn(1<<20)+1), class, g+1)
		for l := range w.spine[g] {
			w.spine[g][l] = fmt.Sprintf("%s.level%d/1", class, l)
		}
		for j := range w.leaf[g] {
			w.leaf[g][j] = fmt.Sprintf("%s.leaf%d/1", class, j)
		}
		// Thread ids follow the order of the Go calls; the spawning
		// thread is 0.
		tid := trace.ThreadID(g + 1)
		w.want[0] = append(w.want[0], step{trace.KindFork, strconv.Itoa(int(tid))})
		w.want[tid] = append(w.planned(g, 0, nil), step{kind: trace.KindEnd})
	}
	for l := range w.arg {
		w.arg[l] = capture.Val("Int", strconv.Itoa(rng.Intn(1<<30)))
	}
	return nil
}

// planned appends the entries goroutine g records from spine level l on.
func (w *record) planned(g, l int, out []step) []step {
	out = append(out, step{trace.KindCall, w.spine[g][l]})
	for _, m := range w.leaf[g] {
		out = append(out, step{trace.KindCall, m}, step{trace.KindReturn, m})
	}
	if l+1 < recordDepth {
		out = w.planned(g, l+1, out)
	}
	return append(out, step{trace.KindReturn, w.spine[g][l]})
}

// drive makes goroutine g's calls from spine level l on, as real nested
// Go calls, so the goroutine's stack is as deep as the recorded one.
func (w *record) drive(rec *capture.Recorder, g, l int) {
	exit := rec.Enter(w.spine[g][l], w.self[g], w.arg[l])
	for _, m := range w.leaf[g] {
		rec.Enter(m, w.self[g], w.arg[l])()
	}
	if l+1 < recordDepth {
		w.drive(rec, g, l+1)
	}
	exit()
}

// setup records recordWarmRuns runs to warm the code paths; nothing
// else in the program needs setting up.
func (w *record) setup(dir string) error {
	for i := 0; i < recordWarmRuns; i++ {
		if _, err := w.run(dir, i, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *record) teardown() {}

func (w *record) op(c, i int) (time.Duration, error) {
	return w.run(filepath.Join(w.e.work, "record"), i, nil)
}

func (w *record) replay(c, i int, tr *tracer) (time.Duration, error) {
	return w.run(filepath.Join(w.e.work, "record"), i, tr)
}

// run records one program run into a fresh directory under parent,
// checks the recording and removes it. It returns the time from Start
// to the end of Close.
func (w *record) run(parent string, i int, tr *tracer) (time.Duration, error) {
	dir := filepath.Join(parent, strconv.Itoa(i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	sum, d, err := w.recordInto(dir, i, tr)
	if err != nil {
		return d, err
	}
	t, err := trace.LoadSegments(dir, recordName)
	if err != nil {
		return d, err
	}
	if sum.Entries != t.Len() {
		w.e.fail("run %d: Close reports %d entries, the segments hold %d", i, sum.Entries, t.Len())
	}
	if err := checkRecording(t, w.want); err != nil {
		w.e.fail("run %d: %v", i, err)
	}
	if tr != nil {
		n, err := storedBytes(dir, recordName)
		if err != nil {
			return d, err
		}
		tr.count("capture.entries", int64(sum.Entries))
		tr.count("trace.segment_bytes", n)
	}
	return d, nil
}

// recordInto makes the recorded program run, writing its segments into
// dir.
func (w *record) recordInto(dir string, i int, tr *tracer) (capture.Summary, time.Duration, error) {
	root := tr.begin(i, 0, "op")
	sp := tr.begin(i, root.id, "capture.start")
	rec, err := capture.Start(capture.Options{Name: recordName, Dir: dir})
	tr.end(sp)
	if err != nil {
		return capture.Summary{}, 0, err
	}
	var wg sync.WaitGroup
	for g := 0; g < recordThreads; g++ {
		wg.Add(1)
		rec.Go(func() {
			defer wg.Done()
			sp := tr.begin(i, root.id, "capture.calls")
			w.drive(rec, g, 0)
			tr.end(sp)
		})
	}
	wg.Wait()
	sp = tr.begin(i, root.id, "capture.close")
	sum, err := rec.Close()
	tr.end(sp)
	return sum, tr.end(root), err
}

func (w *record) verify() error { return nil }

func (w *record) layers(l map[string]*layerTime, ops int) map[string]float64 {
	m := map[string]float64{
		"capture.close_ms": perOp(l, "capture.close", ops),
		"capture.entries":  perOpCount(l, "capture.entries", ops),
	}
	if c := l["capture.calls"]; c != nil && c.Count > 0 {
		m["capture.call_ns"] = float64(c.Total) / float64(c.Count*recordCalls)
	}
	if e := perOpCount(l, "capture.entries", ops); e > 0 {
		m["trace.segment_bytes_per_entry"] = perOpCount(l, "trace.segment_bytes", ops) / e
	}
	return m
}
