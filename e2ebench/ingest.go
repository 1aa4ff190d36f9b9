package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/corpus"
	"repro/internal/diff"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/views"
)

// The ingest workload's make-up. More families than the corpus's default
// trace (16) and web (8) caches hold, so with the families taken in turn
// every baseline is read cold from disk; traces above views' 16K-entry
// threshold, so web builds take the sharded path.
const (
	ingestFamilies  = 20
	ingestEntries   = 24000
	ingestPerturbed = 16                 // entries each upload changes against its baseline
	ingestPool      = 2 * ingestFamilies // distinct uploads, used in turn
	ingestSampleGap = ingestPool / 5     // every this many uploads, re-upload in JSONL after the run
)

// ingest is the write path and the cold read path: each operation
// uploads a trace the store does not hold (PUT /traces, RSEG) and diffs
// it against its family's stored baseline (GET /diff). The benchmark
// deletes the upload afterwards, so the next use of the same input is
// again an upload of unseen content and the corpus stays one size.
type ingest struct {
	e         *env
	baselines [][]byte // RSEG, per family
	pool      []ingestUpload
	svc       *service
	baseIDs   []trace.Digest
}

type ingestUpload struct {
	family int
	body   []byte // RSEG
}

func newIngest(e *env) workload { return &ingest{e: e} }

func (w *ingest) clients() int    { return 1 }
func (w *ingest) round() int      { return 1 }
func (w *ingest) tail() float64   { return 90 }
func (w *ingest) viaServer() bool { return true }

// familyTrace generates family f's baseline: three threads calling six
// methods on thirteen objects, each call carrying a value unique in the
// trace. Names and values come from rng.
func familyTrace(rng *rand.Rand, f int) *trace.Trace {
	tag := rng.Intn(1 << 20)
	class := fmt.Sprintf("Fam%dx%d.Node", f, tag)
	var methods [6]string
	for m := range methods {
		methods[m] = fmt.Sprintf("Fam%dx%d.op%d/1", f, tag, m)
	}
	base := rng.Intn(1 << 30)
	t := trace.New(fmt.Sprintf("family-%d", f))
	for i := 0; i < ingestEntries; i++ {
		obj := trace.Repr{Loc: trace.Loc(i%13 + 1), Class: class, Seq: i%13 + 1}
		m := methods[(i+f)%len(methods)]
		t.Append(trace.ThreadID(i%3+1), m, obj, trace.Event{
			Kind: trace.KindCall, Target: obj, Member: m, Args: []trace.Repr{intRepr(base + i)},
		})
	}
	return t
}

func intRepr(v int) trace.Repr {
	return trace.Repr{Class: "Int", Hash: uint64(v), Str: strconv.Itoa(v)}
}

// perturb returns a copy of base whose call arguments differ in
// ingestPerturbed entries, one in the middle half of each equal slice
// of the trace, chosen by rng; the new values occur nowhere in base.
func perturb(rng *rand.Rand, base *trace.Trace, name string) *trace.Trace {
	t := &trace.Trace{Name: name, Entries: append([]trace.Entry(nil), base.Entries...)}
	stride := len(t.Entries) / ingestPerturbed
	for j := 0; j < ingestPerturbed; j++ {
		e := &t.Entries[j*stride+stride/4+rng.Intn(stride/2)]
		v, _ := strconv.Atoi(e.Event.Args[0].Str)
		e.Event.Args = []trace.Repr{intRepr(v + 1<<31 + rng.Intn(1<<20))}
	}
	t.EnsureSyms()
	return t
}

func rseg(t *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := t.WriteRSEG(&buf)
	return buf.Bytes(), err
}

func (w *ingest) prepare(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.pool = make([]ingestUpload, ingestPool)
	for f := 0; f < ingestFamilies; f++ {
		base := familyTrace(rng, f)
		body, err := rseg(base)
		if err != nil {
			return err
		}
		w.baselines = append(w.baselines, body)
		for b := f; b < ingestPool; b += ingestFamilies {
			if w.pool[b].body, err = rseg(perturb(rng, base, fmt.Sprintf("upload-%d", b))); err != nil {
				return err
			}
			w.pool[b].family = f
		}
	}
	return nil
}

// setup stores every family's baseline through the server, then runs
// two operations to warm the code paths.
func (w *ingest) setup(dir string) error {
	svc, err := startService(dir, w.clients(), 0, corpus.Options{})
	if err != nil {
		return err
	}
	w.svc = svc
	w.baseIDs = w.baseIDs[:0]
	for f, body := range w.baselines {
		var info server.TraceInfo
		if err := svc.call("PUT", "/traces", body, 201, &info); err != nil {
			return fmt.Errorf("family %d baseline: %w", f, err)
		}
		if info.Entries != ingestEntries {
			w.e.fail("family %d baseline stored with %d entries, want %d", f, info.Entries, ingestEntries)
		}
		id, err := trace.ParseDigest(info.ID)
		if err != nil {
			return err
		}
		w.baseIDs = append(w.baseIDs, id)
	}
	for i := ingestPool - 2; i < ingestPool; i++ {
		if _, err := w.op(0, i); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingest) teardown() {
	if w.svc != nil {
		w.svc.stop()
		w.svc = nil
	}
}

func (w *ingest) op(c, i int) (time.Duration, error) {
	u := &w.pool[i%len(w.pool)]
	base := w.baseIDs[u.family].String()
	var info server.TraceInfo
	var res server.DiffResponse
	t0 := time.Now()
	err := w.svc.call("PUT", "/traces", u.body, 201, &info)
	if err == nil {
		err = w.svc.call("GET", "/diff?left="+base+"&right="+info.ID, nil, 200, &res)
	}
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if info.Entries != ingestEntries {
		w.e.fail("upload %d stored with %d entries, want %d", i, info.Entries, ingestEntries)
	}
	if err := checkIngestDiff(ingestPerturbed, res.NumDiffs, res.DiffLeft, res.DiffRight); err != nil {
		w.e.fail("upload %d: %v", i, err)
	}
	var meta server.TraceInfo
	if err := w.svc.call("GET", "/traces/"+info.ID, nil, 200, &meta); err != nil {
		return d, err
	}
	if meta.Entries != ingestEntries {
		w.e.fail("GET /traces/%s reports %d entries, want %d", info.ID, meta.Entries, ingestEntries)
	}
	return d, w.remove(info.ID)
}

func (w *ingest) remove(id string) error {
	d, err := trace.ParseDigest(id)
	if err != nil {
		return err
	}
	return w.svc.store.Delete(d)
}

// replay performs the operation through the layers the two requests
// reach: decoding the upload, Store.Put, the cold Store.Get of the
// baseline, views.Build of both operands, and the views-based diff.
func (w *ingest) replay(c, i int, tr *tracer) (time.Duration, error) {
	u := &w.pool[i%len(w.pool)]
	ctx := context.Background()
	st := w.svc.store
	misses := st.Stats().TraceMisses

	root := tr.begin(i, 0, "op")
	sp := tr.begin(i, root.id, "trace.decode")
	t, err := trace.ReadAny("upload", bytes.NewReader(u.body))
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(i, root.id, "corpus.put")
	id, created, err := st.Put(t)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(i, root.id, "corpus.get_cold")
	base, err := st.Get(w.baseIDs[u.family])
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	var webs [2]*views.Web
	for k, x := range []*trace.Trace{base, t} {
		sp = tr.begin(i, root.id, "views.build")
		webs[k], err = views.BuildCtx(ctx, x)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	sp = tr.begin(i, root.id, "diff.busy")
	res, err := diff.ViewDiffWebsCtx(ctx, webs[0], webs[1], diff.ViewOptions{Parallelism: w.clients()})
	tr.end(sp)
	d := tr.end(root)
	if err != nil {
		return d, err
	}
	if !created {
		w.e.fail("replayed upload %d was already stored", i)
	}
	if got := st.Stats().TraceMisses - misses; got != 1 {
		w.e.fail("replayed operation %d made %d cold trace loads, want 1 (the baseline)", i, got)
	}
	if err := checkIngestDiff(ingestPerturbed, res.NumDiffs(), len(res.DiffLeft), len(res.DiffRight)); err != nil {
		w.e.fail("replayed upload %d: %v", i, err)
	}
	if tr != nil {
		tr.count("diff.compares", res.Stats.Compares)
		n, err := storedBytes(st.Dir(), id.String())
		if err != nil {
			return d, err
		}
		tr.count("corpus.put_bytes", n)
		tr.count("corpus.put_entries", int64(t.Len()))
		sp = tr.begin(i, 0, "index.sketch")
		index.SketchTrace(t)
		tr.end(sp)
	}
	return d, st.Delete(id)
}

// storedBytes sums the sizes of the files the corpus keeps for one
// trace: its segments and its sidecars.
func storedBytes(dir, id string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, id+".*"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// verify re-uploads a sample of the inputs in a second encoding: the
// JSONL form of a trace must land on the digest its RSEG form was
// stored under, as a duplicate.
func (w *ingest) verify() error {
	for b := 0; b < ingestPool; b += ingestSampleGap {
		body := w.pool[b].body
		t, err := trace.ReadAny("sample", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var jsonl bytes.Buffer
		if err := t.WriteJSONL(&jsonl); err != nil {
			return err
		}
		var first, again server.TraceInfo
		if err := w.svc.call("PUT", "/traces", body, 201, &first); err != nil {
			return err
		}
		if err := w.svc.call("PUT", "/traces", jsonl.Bytes(), 200, &again); err != nil {
			return fmt.Errorf("JSONL re-upload of upload %d: %w", b, err)
		}
		if again.ID != first.ID || again.Created {
			w.e.fail("JSONL re-upload of upload %d: digest %s created=%t, want %s created=false",
				b, again.ID, again.Created, first.ID)
		}
		if err := w.remove(first.ID); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingest) layers(l map[string]*layerTime, ops int) map[string]float64 {
	m := map[string]float64{
		"trace.decode_ms":    perOp(l, "trace.decode", ops),
		"corpus.put_ms":      perOp(l, "corpus.put", ops),
		"index.sketch_ms":    perOp(l, "index.sketch", ops),
		"corpus.get_cold_ms": perOp(l, "corpus.get_cold", ops),
		"views.build_ms":     perOp(l, "views.build", ops),
		"diff.busy_ms":       perOp(l, "diff.busy", ops),
		"diff.compares":      perOpCount(l, "diff.compares", ops),
	}
	if e := perOpCount(l, "corpus.put_entries", ops); e > 0 {
		m["corpus.put_bytes_per_entry"] = perOpCount(l, "corpus.put_bytes", ops) / e
	}
	return m
}
