package main

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/diff"
	"repro/internal/regression"
	"repro/internal/subjects"
	"repro/internal/trace"
	"repro/internal/views"
)

func TestCheckRegressionAcceptsRealAnswerAndRejectsMissingSite(t *testing.T) {
	s := subjects.Xalan1725()
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	an, err := regression.Analyze(regression.Input{
		OrigCorrect: tr.OrigCorrect, NewCorrect: tr.NewCorrect,
		OrigRegr: tr.OrigRegr, NewRegr: tr.NewRegr, RemovalMode: s.RemovalMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	report := an.Report(0)
	if err := checkRegression(s.Sites, an.Sizes, len(an.Related), report); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	missing := strings.ReplaceAll(report, s.Sites[0], "elsewhere")
	if err := checkRegression(s.Sites, an.Sizes, len(an.Related), missing); err == nil {
		t.Errorf("report without site %q accepted", s.Sites[0])
	}
	for _, bad := range []regression.SetSizes{
		{A: an.Sizes.A, B: an.Sizes.B, C: an.Sizes.C, D: 0},
		{A: an.Sizes.D - 1, B: an.Sizes.B, C: an.Sizes.C, D: an.Sizes.D},
		{A: an.Sizes.A, B: an.Sizes.B, C: an.Sizes.D - 1, D: an.Sizes.D},
	} {
		if err := checkRegression(s.Sites, bad, bad.D, report); err == nil {
			t.Errorf("set sizes %+v accepted", bad)
		}
	}
	if err := checkRegression(s.Sites, an.Sizes, len(an.Related)-1, report); err == nil {
		t.Error("one related sequence short accepted")
	}
}

func TestCheckIngestDiffAcceptsGeneratedPairAndRejectsOffByOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := familyTrace(rng, 0)
	up := perturb(rng, base, "upload")
	res, err := diff.ViewDiffWebsCtx(context.Background(), views.Build(base), views.Build(up), diff.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIngestDiff(ingestPerturbed, res.NumDiffs(), len(res.DiffLeft), len(res.DiffRight)); err != nil {
		t.Fatalf("generated pair rejected: %v", err)
	}
	k := ingestPerturbed
	for _, c := range [][3]int{{2*k + 1, k + 1, k}, {2*k - 1, k, k - 1}, {2 * k, k + 1, k - 1}} {
		if err := checkIngestDiff(k, c[0], c[1], c[2]); err == nil {
			t.Errorf("diff counts %v accepted for %d perturbed entries", c, k)
		}
	}
}

func TestCheckRecordingAcceptsRealRecordingAndRejectsCorruptions(t *testing.T) {
	w := newRecord(&env{work: t.TempDir()}).(*record)
	if err := w.prepare(3); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := w.recordInto(dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	load := func() *trace.Trace {
		tr, err := trace.LoadSegments(dir, recordName)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if err := checkRecording(load(), w.want); err != nil {
		t.Fatalf("real recording rejected: %v", err)
	}

	dropped := load()
	for i, e := range dropped.Entries {
		if e.TID == 1 && e.Event.Kind == trace.KindReturn {
			dropped.Entries = append(dropped.Entries[:i], dropped.Entries[i+1:]...)
			break
		}
	}
	if err := checkRecording(dropped, w.want); err == nil {
		t.Error("recording with a dropped return accepted")
	}

	short := load()
	short.Entries = short.Entries[:len(short.Entries)-1]
	if err := checkRecording(short, w.want); err == nil {
		t.Error("recording one entry short accepted")
	}

	// Two adjacent leaf calls of thread 2 swapped, with their returns:
	// balanced, the right count, the wrong order.
	swapped := load()
	var idx []int
	for i, e := range swapped.Entries {
		if e.TID == 2 {
			idx = append(idx, i)
		}
	}
	for k := 0; k+3 < len(idx); k++ {
		a, b := &swapped.Entries[idx[k]].Event, &swapped.Entries[idx[k+2]].Event
		if a.Kind == trace.KindCall && b.Kind == trace.KindCall && a.Member != b.Member &&
			strings.Contains(a.Member, ".leaf") && strings.Contains(b.Member, ".leaf") {
			a.Member, b.Member = b.Member, a.Member
			ra, rb := &swapped.Entries[idx[k+1]].Event, &swapped.Entries[idx[k+3]].Event
			ra.Member, rb.Member = rb.Member, ra.Member
			break
		}
	}
	if err := checkRecording(swapped, w.want); err == nil {
		t.Error("recording with calls out of plan order accepted")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestWindowedTailIgnoresStallInOnePart(t *testing.T) {
	// 100 operations in rounds of 2: every part's p90 is 10 except the
	// stalled second part's.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i%10 + 1)
	}
	for i := 20; i < 40; i++ {
		lat[i] = 1000
	}
	if got := windowedTail(lat, 2, 90); math.Abs(got-9.1) > 1e-9 {
		t.Errorf("windowedTail = %v, want 9.1", got)
	}
	if whole := percentile(append([]float64(nil), lat...), 90); whole != 1000 {
		t.Errorf("whole-run p90 = %v, want 1000", whole)
	}
	// Fewer rounds than parts: the whole run's percentile.
	if got := windowedTail(lat[:8], 2, 50); got != 4.5 {
		t.Errorf("short-run windowedTail = %v, want 4.5", got)
	}
}
