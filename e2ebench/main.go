// Command e2ebench is rprism's end-to-end benchmark. It drives the real
// program on one of three workloads, checks every answer, and prints
// one JSON result line (see README.md):
//
//	e2ebench -workload regress|ingest|record -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics of a closed-loop run;
// with -trace 1 it replays the same operations through each layer's
// public functions, keeps a span around every layer call, and reports
// per-layer metrics. -steady K runs the untraced benchmark K times, each
// in a fresh process with its own seed, and prints each end-to-end
// metric's median, quartiles and spread against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark workload. prepare generates every input
// from the seed; setup brings the program up on fresh state and runs
// several times, the last one serving the measured phase.
type workload interface {
	prepare(seed int64) error
	setup(dir string) error
	teardown()
	// clients is the closed loop's client count; round is the number of
	// operations in one round; tail is the percentile latency_tail_ms
	// reports.
	clients() int
	round() int
	tail() float64
	// op is one end-to-end operation, as a user issues it, by client c.
	// It returns the operation's latency, which leaves out the
	// benchmark's own bookkeeping around it.
	op(c, i int) (time.Duration, error)
	// replay performs operation i by calling each layer's public
	// functions directly, with a span around each call when tr is
	// non-nil. It returns the time of the replayed operation itself.
	replay(c, i int, tr *tracer) (time.Duration, error)
	// viaServer reports whether op goes through the HTTP server (and
	// so differs from replay by the server's overhead).
	viaServer() bool
	// verify runs the checks made once the measured phase has ended.
	verify() error
	// layers derives the workload's per-layer metrics from the traced
	// run's spans, per replayed operation.
	layers(l map[string]*layerTime, ops int) map[string]float64
}

var workloads = map[string]func(*env) workload{
	"regress": newRegress,
	"ingest":  newIngest,
	"record":  newRecord,
}

// env carries what every workload shares: where to write, and the
// run's answer-check state.
type env struct {
	work  string // scratch directory of this run, inside the checkout
	mu    sync.Mutex
	wrong []string
}

// fail records a wrong answer. The run still completes; it reports
// "correct": false.
func (e *env) fail(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.wrong) < 20 {
		logf("wrong answer: %s", msg)
	}
	e.wrong = append(e.wrong, msg)
}

func logf(format string, a ...any) { fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", a...) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times each run sets the program up; setup_s is
// the median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload: regress, ingest or record")
	seed := flag.Int64("seed", 1, "workload seed; the program receives only the inputs generated from it")
	seconds := flag.Float64("seconds", 30, "length of the measured phase")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "run the untraced benchmark this many times with seeds seed, seed+1, ... and report each metric's spread")
	root := flag.String("root", ".", "checkout root (holds BENCHMARK.json)")
	out := flag.String("out", ".bench_build", "directory for scratch corpora and span files")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok {
		logf("unknown workload %q (want regress, ingest or record)", *name)
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(*name, *seed, *seconds, *steady, *root, *out); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(mk, *name, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func run(mk func(*env) workload, name string, seed int64, seconds float64, traced bool, out string) (*result, error) {
	work, err := filepath.Abs(filepath.Join(out, "work", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{work: work}
	w := mk(e)
	if err := w.prepare(seed); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(filepath.Join(work, fmt.Sprintf("setup%d", k))); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	warmUp(w, e)
	if traced {
		return runTraced(w, name, seed, seconds, e, out)
	}

	p := closedLoop(w.clients(), w.round(), seconds, w.op)
	if err := w.verify(); err != nil {
		e.fail("%v", err)
	}
	done := p.attempted - p.failed
	lat := append([]float64(nil), p.lat...)
	res := &result{
		Correct: len(e.wrong) == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: map[string]metric{
			"throughput_ops_s": {float64(done) / p.wall.Seconds(), "1/s"},
			"latency_p50_ms":   {finite(percentile(lat, 50)), "ms"},
			"latency_tail_ms":  {finite(windowedTail(p.lat, w.round(), w.tail())), "ms"},
			"cpu_ms_per_op":    {ms(p.cpu) / float64(max(done, 1)), "ms"},
			"peak_rss_mb":      {float64(p.peakRSS) / (1 << 20), "MB"},
			"setup_s":          {median(setups), "s"},
		},
	}
	beyond := float64(p.attempted) * (1 - w.tail()/100)
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed, %.1f s, %d clients, %d cores\n",
		name, seed, p.attempted, p.failed, p.wall.Seconds(), w.clients(), runtime.NumCPU())
	fmt.Printf("latency_tail_ms is p%g, the median of %d consecutive parts' p%g: %.1f samples beyond it in the run, %.1f in each part\n",
		w.tail(), tailWindows, w.tail(), beyond, beyond/tailWindows)
	if beyond < 10 {
		logf("fewer than ten samples beyond p%g; the tail figure is weak", w.tail())
	}
	if r, ok := w.(interface{ report() }); ok {
		r.report()
	}
	printMetrics(res.Metrics)
	return res, nil
}

// finite maps the +Inf of a percentile that landed on a failed
// operation to a large finite number JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e9
	}
	return v
}

// runTraced rotates through the operation kinds round by round: the
// end-to-end operation (when it goes through the server), the traced
// replay, and the untraced replay, so all three see the same mix of
// operations and the same cache state.
func runTraced(w workload, name string, seed int64, seconds float64, e *env, out string) (*result, error) {
	tr := newTracer()
	kinds := []string{"traced", "untraced"}
	if w.viaServer() {
		kinds = append([]string{"server"}, kinds...)
	}
	round := w.round()
	sums := make([][]time.Duration, w.clients())
	counts := make([][]int, w.clients())
	for c := range sums {
		sums[c] = make([]time.Duration, len(kinds))
		counts[c] = make([]int, len(kinds))
	}
	p := closedLoop(w.clients(), round*len(kinds), seconds, func(c, i int) (time.Duration, error) {
		k := (i / round) % len(kinds)
		var d time.Duration
		var err error
		switch kinds[k] {
		case "server":
			d, err = w.op(c, i)
		case "traced":
			d, err = w.replay(c, i, tr)
		default:
			d, err = w.replay(c, i, nil)
		}
		if err == nil {
			sums[c][k] += d
			counts[c][k]++
		}
		return d, err
	})
	if err := w.verify(); err != nil {
		e.fail("%v", err)
	}
	mean := map[string]time.Duration{}
	for k, kind := range kinds {
		var s time.Duration
		n := 0
		for c := range sums {
			s += sums[c][k]
			n += counts[c][k]
		}
		if n > 0 {
			mean[kind] = s / time.Duration(n)
		}
	}
	l := tr.layers()
	ops := 0
	if op := l["op"]; op != nil {
		ops = op.Count
	}
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = 0 // the layer does not run on this workload
	}
	for k, v := range w.layers(l, ops) {
		vals[k] = v
	}
	if w.viaServer() {
		vals["server.overhead_ms"] = ms(mean["server"] - mean["untraced"])
	}
	if mean["untraced"] > 0 {
		vals["tracing.overhead_pct"] = 100 * (float64(mean["traced"])/float64(mean["untraced"]) - 1)
	}
	res := &result{Correct: len(e.wrong) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}

	spanDir := filepath.Join(out, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(spanPath)
	if err != nil {
		return nil, err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	fmt.Printf("traced run of %s seed %d: %d operations attempted, %d failed, %d replayed with spans; spans in %s\n",
		name, seed, p.attempted, p.failed, ops, spanPath)
	for _, kind := range kinds {
		fmt.Printf("  mean %-8s operation: %.3f ms\n", kind, ms(mean[kind]))
	}
	fmt.Printf("  tracing overhead (traced vs untraced replay): %+.2f%%\n", vals["tracing.overhead_pct"])
	fmt.Printf("  %-26s %8s %12s %12s %7s\n", "span", "calls/op", "incl ms/op", "self ms/op", "share")
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Strings(names)
	opTotal := time.Duration(0)
	if op := l["op"]; op != nil {
		opTotal = op.Total
	}
	var counters []string
	for _, n := range names {
		lt := l[n]
		if lt.Count == 0 {
			counters = append(counters, fmt.Sprintf("%s %.1f/op", n, float64(lt.Sum)/float64(max(ops, 1))))
			continue
		}
		share := ""
		if opTotal > 0 && n != "op" {
			share = fmt.Sprintf("%6.1f%%", 100*float64(lt.Total)/float64(opTotal))
		}
		div := float64(max(ops, 1))
		fmt.Printf("  %-26s %8.2f %12.3f %12.3f %7s\n", n, float64(lt.Count)/div,
			ms(lt.Total)/div, ms(lt.Own)/div, share)
	}
	if len(counters) > 0 {
		fmt.Printf("  counters: %s\n", strings.Join(counters, ", "))
	}
	printMetrics(res.Metrics)
	return res, nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
