package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// phase is the outcome of one closed-loop measurement.
type phase struct {
	// lat holds one latency per attempted operation, in ms, in the
	// order the operations were dispatched; a failed operation is +Inf,
	// so it counts as missing every percentile.
	lat       []float64
	attempted int
	failed    int
	wall      time.Duration // first dispatch to last completion
	cpu       time.Duration // user+sys CPU of the process over the phase
	peakRSS   int64         // bytes, sampled over the phase
}

// dispatcher hands out operation indices to the closed-loop clients.
// After the deadline it keeps handing out indices until the current
// round is complete, so every run attempts whole rounds.
type dispatcher struct {
	mu       sync.Mutex
	next     int
	round    int
	deadline time.Time
}

func (d *dispatcher) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next%d.round == 0 && !time.Now().Before(d.deadline) {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// closedLoop runs op from `clients` goroutines, each sending its next
// operation only after the previous one completed, for `seconds`
// seconds rounded up to whole rounds. op returns the operation's
// latency; its error marks the operation failed.
func closedLoop(clients, round int, seconds float64, op func(c, i int) (time.Duration, error)) phase {
	rss := startRSSSampler()
	cpu0 := cpuTime()
	start := time.Now()
	d := &dispatcher{round: round, deadline: start.Add(time.Duration(seconds * float64(time.Second)))}
	type sample struct {
		i   int
		lat float64
	}
	samples := make([][]sample, clients)
	fails := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				dur, err := op(c, i)
				lat := ms(dur)
				if err != nil {
					fails[c]++
					lat = math.Inf(1)
					logf("operation %d failed: %v", i, err)
				}
				samples[c] = append(samples[c], sample{i, lat})
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start), cpu: cpuTime() - cpu0, peakRSS: rss.stop()}
	p.attempted = d.next
	p.lat = make([]float64, p.attempted)
	for c := range samples {
		for _, s := range samples[c] {
			p.lat[s.i] = s.lat
		}
		p.failed += fails[c]
	}
	return p
}

// warmSeconds is how long each run drives the workload, untimed, between
// set-up and the measured phase, so the phase starts on a grown heap and
// warm caches rather than paying for them in its first operations.
const warmSeconds = 3

// warmUp runs the closed loop for warmSeconds from a collected heap and
// discards its timings; a failed operation is reported as a wrong answer.
func warmUp(w workload, e *env) {
	// Start from a collected heap so the RSS peak and the heap the
	// measured phase starts on belong to the workload's own operations
	// rather than to input generation or set-up.
	debug.FreeOSMemory()
	p := closedLoop(w.clients(), w.round(), warmSeconds, w.op)
	if p.failed > 0 {
		e.fail("%d of %d warm-up operations failed", p.failed, p.attempted)
	}
}

// tailWindows is the number of consecutive parts of the measured phase
// whose tail percentiles latency_tail_ms takes the median of.
const tailWindows = 5

// windowedTail returns the median, over tailWindows consecutive parts of
// lat of equal whole rounds, of each part's p-th percentile. A stall of
// the shared host confined to two of the parts moves those two
// percentiles but not the median, where it would move the percentile of
// the whole run. Runs of fewer rounds than parts use the whole run.
func windowedTail(lat []float64, round int, p float64) float64 {
	rounds := len(lat) / round
	if rounds < tailWindows {
		return percentile(append([]float64(nil), lat...), p)
	}
	tails := make([]float64, tailWindows)
	for k := range tails {
		lo, hi := k*rounds/tailWindows*round, (k+1)*rounds/tailWindows*round
		tails[k] = percentile(append([]float64(nil), lat[lo:hi]...), p)
	}
	return median(tails)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(xs[hi], 1) {
		return math.Inf(1)
	}
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method; xs must hold at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld, n := len(d), 4
	m := ld + 1
	q := make([]float64, 0, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q = append(q, (d[j-1]*(float64(n)-delta)+d[j]*delta)/float64(n))
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	return percentile(d, 50)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler polls the process's resident set size. The kernel's own
// high-water mark would include input generation and set-up, which
// happen before the measured phase.
type rssSampler struct {
	stopc chan struct{}
	done  chan int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		peak := readRSS()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				if r := readRSS(); r > peak {
					peak = r
				}
				s.done <- peak
				return
			case <-tick.C:
				if r := readRSS(); r > peak {
					peak = r
				}
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() int64 {
	close(s.stopc)
	return <-s.done
}

// readRSS returns the resident set size in bytes from /proc/self/statm,
// or 0 where it is unavailable.
func readRSS() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
