package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// perLayer lists the traced run's metrics; every traced run reports all
// of them, with 0 for a layer the workload never calls.
var perLayer = []struct{ name, unit string }{
	{"server.overhead_ms", "ms"},
	{"engine.regression_ms", "ms"},
	{"corpus.views_hit_ms", "ms"},
	{"diff.busy_ms", "ms"},
	{"diff.compares", "count"},
	{"regression.combine_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"corpus.put_ms", "ms"},
	{"index.sketch_ms", "ms"},
	{"corpus.put_bytes_per_entry", "B"},
	{"corpus.get_cold_ms", "ms"},
	{"views.build_ms", "ms"},
	{"capture.call_ns", "ns"},
	{"capture.close_ms", "ms"},
	{"capture.entries", "count"},
	{"trace.segment_bytes_per_entry", "B"},
	{"tracing.overhead_pct", "%"},
}

// benchSpec is the part of BENCHMARK.json steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs the untraced benchmark k times, each in a fresh
// process with seeds seed..seed+k-1, and prints each end-to-end metric's
// median, quartiles and interquartile spread as a share of the median,
// next to the metric's bound in BENCHMARK.json.
func runSteady(name string, seed int64, seconds float64, k int, root, out string) error {
	if k < 2 {
		return fmt.Errorf("-steady needs at least two runs, got %d", k)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	var failShares []string
	for j := 0; j < k; j++ {
		s := seed + int64(j)
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0", "-root", root, "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: wrong answers", s)
		}
		var line bytes.Buffer
		fmt.Fprintf(&line, "seed %d: attempted %d failed %d", s, res.Attempted, res.Failed)
		for _, m := range spec.EndToEnd {
			v := res.Metrics[m.Name].Value
			vals[m.Name] = append(vals[m.Name], v)
			fmt.Fprintf(&line, " %s=%.4g", m.Name, v)
		}
		fmt.Println(line.String())
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
	}
	fmt.Printf("%s: %d runs, %g s each; failed/attempted per run: %s\n", name, k, seconds, strings.Join(failShares, " "))
	fmt.Printf("  %-18s %12s %12s %12s %8s %6s %7s\n", "metric", "q1", "median", "q3", "spread", "bound", "/bound")
	for _, m := range spec.EndToEnd {
		q1, q2, q3 := quartiles(vals[m.Name])
		spread := (q3 - q1) / q2
		fmt.Printf("  %-18s %12.4f %12.4f %12.4f %7.2f%% %5.0f%% %7.2f\n",
			m.Name, q1, q2, q3, 100*spread, 100*m.Bound, spread/m.Bound)
	}
	return nil
}
