package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	rprism "repro"
	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/regression"
	"repro/internal/server"
	"repro/internal/subjects"
	"repro/internal/trace"
	"repro/internal/views"
)

// regress asks the paper's question on the paper's subjects: each
// operation is a POST /run/regression over the four traces of one
// Table 1 subject, in a fixed round-robin over the five subjects.
type regress struct {
	e    *env
	subs []regressSubject
	// offset is where the round-robin starts; it is the only input the
	// seed chooses, since the subjects are fixed programs.
	offset int
	svc    *service
	ncli   int

	mu    sync.Mutex
	bySub map[string][]float64 // measured-phase latencies per subject, ms
}

type regressSubject struct {
	name    string
	sites   []string
	removal bool
	bodies  [4][]byte // RSEG uploads: orig-correct, new-correct, orig-regr, new-regr
	ids     [4]trace.Digest
	request []byte // POST /run/regression body
}

func newRegress(e *env) workload {
	return &regress{e: e, ncli: runtime.NumCPU()}
}

func (w *regress) clients() int    { return w.ncli }
func (w *regress) round() int      { return len(w.subs) }
func (w *regress) tail() float64   { return 95 }
func (w *regress) viaServer() bool { return true }

func (w *regress) prepare(seed int64) error {
	all := subjects.All()
	w.offset = int(uint64(seed) % uint64(len(all)))
	for _, s := range all {
		tr, err := s.Run()
		if err != nil {
			return err
		}
		rs := regressSubject{name: s.Name, sites: s.Sites, removal: s.RemovalMode}
		for k, t := range []*trace.Trace{tr.OrigCorrect, tr.NewCorrect, tr.OrigRegr, tr.NewRegr} {
			var buf bytes.Buffer
			if err := t.WriteRSEG(&buf); err != nil {
				return err
			}
			rs.bodies[k] = buf.Bytes()
		}
		w.subs = append(w.subs, rs)
	}
	return nil
}

// setup uploads the twenty traces and builds all twenty webs; the
// corpus web cache holds them all, so the measured phase diffs warm.
//
// Each analysis runs its diffs serially (-parallel 1). With the default,
// an analysis that finds the other slot free claims it for its whole
// run, so the other client's next request, however cheap, waits behind
// it; which requests wait then depends on how the two clients happen to
// interleave, and the figures swing from run to run.
func (w *regress) setup(dir string) error {
	svc, err := startService(dir, w.ncli, 1, corpus.Options{TraceCacheSize: 20, WebCacheSize: 20})
	if err != nil {
		return err
	}
	w.svc = svc
	w.bySub = map[string][]float64{}
	for si := range w.subs {
		s := &w.subs[si]
		for k, body := range s.bodies {
			var info server.TraceInfo
			if err := svc.call("PUT", "/traces", body, 201, &info); err != nil {
				return fmt.Errorf("%s: upload: %w", s.name, err)
			}
			if s.ids[k], err = trace.ParseDigest(info.ID); err != nil {
				return err
			}
			if err := svc.call("GET", "/traces/"+info.ID+"/views", nil, 200, nil); err != nil {
				return fmt.Errorf("%s: views: %w", s.name, err)
			}
		}
		req := server.RunRequest{
			Traces: map[string]string{
				"orig_correct": s.ids[0].String(), "new_correct": s.ids[1].String(),
				"orig_regr": s.ids[2].String(), "new_regr": s.ids[3].String(),
			},
			Params: json.RawMessage(fmt.Sprintf(`{"removal":%t}`, s.removal)),
			// Large enough to list every related sequence in the report.
			MaxSeqs: 1 << 20,
		}
		if s.request, err = json.Marshal(req); err != nil {
			return err
		}
	}
	// One warm round, so the measured phase starts with every code path
	// and allocator size class in use.
	for si := range w.subs {
		if _, err := w.post(&w.subs[si]); err != nil {
			return err
		}
	}
	w.bySub = map[string][]float64{}
	return nil
}

func (w *regress) teardown() {
	if w.svc != nil {
		w.svc.stop()
		w.svc = nil
	}
}

func (w *regress) subject(i int) *regressSubject { return &w.subs[(i+w.offset)%len(w.subs)] }

func (w *regress) op(c, i int) (time.Duration, error) { return w.post(w.subject(i)) }

// post asks the server for subject s's regression analysis and checks
// the answer.
func (w *regress) post(s *regressSubject) (time.Duration, error) {
	var resp server.AnalyzeResponse
	t0 := time.Now()
	err := w.svc.call("POST", "/run/regression", s.request, 200, &resp)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if err := checkRegression(s.sites, resp.Sizes, len(resp.Related), resp.Report); err != nil {
		w.e.fail("%s: %v", s.name, err)
	}
	w.mu.Lock()
	w.bySub[s.name] = append(w.bySub[s.name], ms(d))
	w.mu.Unlock()
	return d, nil
}

// report prints each subject's latency band, which shows the band the
// p50 and the tail fall in.
func (w *regress) report() {
	for _, s := range w.subs {
		l := w.bySub[s.name]
		fmt.Printf("  %-14s %4d ops  p10 %8.2f  p50 %8.2f  p90 %8.2f ms\n", s.name, len(l),
			percentile(l, 10), percentile(l, 50), percentile(l, 90))
	}
}

// replay performs the regression the server would, layer by layer:
// four warm view lookups, the three differencing passes, and the set
// algebra. Traced, it also runs the same analysis through the engine
// to time the engine layer as a whole.
func (w *regress) replay(c, i int, tr *tracer) (time.Duration, error) {
	s := w.subject(i)
	ctx := context.Background()
	opts := diff.ViewOptions{Parallelism: 1}
	root := tr.begin(i, 0, "op")
	var webs [4]*views.Web
	for k, id := range s.ids {
		sp := tr.begin(i, root.id, "corpus.views_hit")
		web, err := w.svc.store.ViewsCtx(ctx, id)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		webs[k] = web
	}
	var res [3]*diff.Result
	for k, pair := range [3][2]int{{2, 3}, {0, 1}, {1, 3}} {
		sp := tr.begin(i, root.id, "diff.busy")
		r, err := diff.ViewDiffWebsCtx(ctx, webs[pair[0]], webs[pair[1]], opts)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		res[k] = r
	}
	sp := tr.begin(i, root.id, "regression.combine")
	an := regression.Combine(res[0], res[1], res[2], s.removal)
	tr.end(sp)
	d := tr.end(root)

	if err := checkRegression(s.sites, an.Sizes, len(an.Related), an.Report(0)); err != nil {
		w.e.fail("%s (replay): %v", s.name, err)
	}
	if tr == nil {
		return d, nil
	}
	var compares int64
	for _, r := range res {
		compares += r.Stats.Compares
	}
	tr.count("diff.compares", compares)

	sp = tr.begin(i, 0, "engine.regression")
	en, err := w.svc.eng.AnalyzeRegressionWith(ctx, rprism.RegressionSources{
		OrigCorrect: rprism.FromCorpus(s.ids[0]), NewCorrect: rprism.FromCorpus(s.ids[1]),
		OrigRegr: rprism.FromCorpus(s.ids[2]), NewRegr: rprism.FromCorpus(s.ids[3]),
		Removal: s.removal,
	}, opts)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if err := checkRegression(s.sites, en.Sizes, len(en.Related), en.Report(0)); err != nil {
		w.e.fail("%s (engine): %v", s.name, err)
	}
	return d, nil
}

func (w *regress) verify() error { return nil }

func (w *regress) layers(l map[string]*layerTime, ops int) map[string]float64 {
	return map[string]float64{
		"engine.regression_ms":  perOp(l, "engine.regression", ops),
		"corpus.views_hit_ms":   perOp(l, "corpus.views_hit", ops),
		"diff.busy_ms":          perOp(l, "diff.busy", ops),
		"diff.compares":         perOpCount(l, "diff.compares", ops),
		"regression.combine_ms": perOp(l, "regression.combine", ops),
	}
}
