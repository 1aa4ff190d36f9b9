package main

import (
	"fmt"
	"strings"

	"repro/internal/regression"
	"repro/internal/trace"
)

// checkRegression checks one regression answer against the subject's
// ground truth: the candidate report names every site, and the set
// sizes obey the protocol, 1 ≤ |D| ≤ |A| and |D| ≤ |C|, with one related
// sequence listed per regression-related sequence.
func checkRegression(sites []string, sizes regression.SetSizes, related int, report string) error {
	for _, site := range sites {
		if !strings.Contains(report, site) {
			return fmt.Errorf("report does not name ground-truth site %q", site)
		}
	}
	if sizes.D < 1 || sizes.D > sizes.A || sizes.D > sizes.C {
		return fmt.Errorf("set sizes break 1 ≤ |D| ≤ |A|, |D| ≤ |C|: %+v", sizes)
	}
	if related != sizes.D {
		return fmt.Errorf("%d related sequences listed, |D| = %d", related, sizes.D)
	}
	return nil
}

// checkIngestDiff checks a diff between a generated trace and its
// family baseline: each of the k perturbed entries differs on both
// sides and nothing else does.
func checkIngestDiff(k, numDiffs, left, right int) error {
	if numDiffs != 2*k || left != k || right != k {
		return fmt.Errorf("diff found %d differences (%d left, %d right), want %d (%d each side)",
			numDiffs, left, right, 2*k, k)
	}
	return nil
}

// step is one expected entry of a recorded thread.
type step struct {
	kind   trace.EventKind
	member string
}

// checkRecording checks a loaded recording against the expected
// per-thread sequences: exactly the planned entries, every thread's
// entries in the planned order. The plan's calls and returns are
// balanced, so a recording that matches it is balanced too.
func checkRecording(t *trace.Trace, want map[trace.ThreadID][]step) error {
	total := 0
	for _, s := range want {
		total += len(s)
	}
	if t.Len() != total {
		return fmt.Errorf("recording holds %d entries, the plan gives %d", t.Len(), total)
	}
	got := map[trace.ThreadID][]*trace.Entry{}
	for i := range t.Entries {
		e := &t.Entries[i]
		got[e.TID] = append(got[e.TID], e)
	}
	for tid, steps := range want {
		es := got[tid]
		if len(es) != len(steps) {
			return fmt.Errorf("thread %d has %d entries, the plan gives %d", tid, len(es), len(steps))
		}
		for j, e := range es {
			if e.Event.Kind != steps[j].kind || e.Event.Member != steps[j].member {
				return fmt.Errorf("thread %d entry %d is %s %s, the plan gives %s %s",
					tid, j, e.Event.Kind, e.Event.Member, steps[j].kind, steps[j].member)
			}
		}
	}
	return nil
}
