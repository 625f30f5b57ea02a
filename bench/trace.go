package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/model"
	"extrap/internal/pcxx"
	"extrap/internal/serve"
	"extrap/internal/sim"
	"extrap/internal/store"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is 0 for the request's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory; a span's id is its
// 1-based position.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(parent, req int, name string) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Since(l.t0).Nanoseconds() }

// selfNs returns each span's self time: its duration minus the summed
// durations of its direct children. Durations rather than covered
// intervals are subtracted because two kinds of child run outside their
// parent's interval: a request's in-process replay runs after its HTTP
// call, and compile and translate re-run on their own the work that
// simulate interleaves.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// layerCounts is the work counted at the replayed layer boundaries.
type layerCounts struct {
	requests, cells              int64
	specs, specNodes             int64
	measuredEvents               int64
	rawBytes, encodedBytes, puts int64
	simulatedEvents              int64 // events the simulations covered, skipped ones included
	translatedEvents             int64 // events the decode passes translated
}

// replayer re-executes requests in-process through the layers' public
// calls, mirroring the server's pipeline: resolve the program, look the
// measurement up in a cache or measure, encode as XTRP2 and store it,
// then extrapolate each cell.
type replayer struct {
	ctx   context.Context
	log   *spanLog
	store *store.Store
	cache map[core.CacheKey][]byte
	ops   map[core.CacheKey][]repeatOp
	// passes are the encodings the current request's simulate spans
	// consumed, re-run through compile and translate after the request.
	passes []pass
	c      layerCounts
}

type pass struct {
	parent, req int
	key         core.CacheKey
	enc         []byte
	// skippedIters is how many pattern iterations the simulation
	// fast-forwarded over instead of translating.
	skippedIters uint64
}

func newReplayer(storeDir string) (*replayer, error) {
	st, err := store.Open(storeDir, 0)
	if err != nil {
		return nil, err
	}
	return &replayer{ctx: context.Background(), log: &spanLog{t0: time.Now()}, store: st,
		cache: map[core.CacheKey][]byte{}, ops: map[core.CacheKey][]repeatOp{}}, nil
}

// reset forgets spans and counts, keeping the cache.
func (rp *replayer) reset() {
	rp.log = &spanLog{t0: time.Now()}
	rp.c = layerCounts{}
}

// program is a request's resolved program.
type program struct {
	name    string
	size    benchmarks.Size
	bench   benchmarks.Benchmark
	factory core.ProgramFactory // built on first measurement
}

// replay re-executes request r, whose root span is root, and checks that
// it predicts exactly the values of the server's response body. A nil
// body only fills the cache.
func (rp *replayer) replay(req, root int, r *request, body []byte) error {
	var err error
	switch r.path {
	case pathExtrapolate:
		err = rp.extrapolate(req, root, r.body, body)
	case pathSweep:
		err = rp.sweep(req, root, r.body, body)
	default:
		err = fmt.Errorf("cannot replay %s", r.path)
	}
	for _, p := range rp.passes {
		if perr := rp.decodePasses(p); err == nil {
			err = perr
		}
	}
	rp.passes = rp.passes[:0]
	if err != nil {
		return fmt.Errorf("replaying %s %s: %w", r.path, r.body, err)
	}
	return nil
}

// program resolves a program as the server does: a suite benchmark by
// name or an inline composed workload, with zero size fields defaulted.
// Parsing and lowering a workload is the compose layer.
func (rp *replayer) program(req, parent int, name string, spec json.RawMessage, size, iters int) (*program, error) {
	p := &program{}
	if len(spec) > 0 {
		id := rp.log.begin(parent, req, "compose")
		w, err := compose.FromJSON(spec)
		if err == nil {
			p.bench = w
			p.size = sized(w, size, iters)
			p.factory = w.Factory(p.size)
		}
		rp.log.end(id)
		if err != nil {
			return nil, err
		}
		rp.c.specs++
		rp.c.specNodes += int64(w.Nodes())
	} else {
		b, err := benchmarks.ByName(name)
		if err != nil {
			return nil, err
		}
		p.bench = b
		p.size = sized(b, size, iters)
	}
	p.name = p.bench.Name()
	return p, nil
}

func sized(b benchmarks.Benchmark, size, iters int) benchmarks.Size {
	sz := b.DefaultSize()
	if size > 0 {
		sz.N = size
	}
	if iters > 0 {
		sz.Iters = iters
	}
	sz.Verify = false
	return sz
}

// cell answers one (program, threads, machine) cell.
func (rp *replayer) cell(req, parent int, p *program, threads int, cfg sim.Config) (*core.Prediction, error) {
	key := experiments.MeasurementKey(p.name, p.size, threads, core.MeasureOptions{SizeMode: pcxx.ActualSize})
	enc, ok := rp.cache[key]
	if !ok {
		var err error
		if enc, err = rp.measure(req, parent, p, key); err != nil {
			return nil, err
		}
	}
	skipped := sim.ReadReplayCounters().IterationsSkipped
	id := rp.log.begin(parent, req, "simulate")
	pred, err := core.ExtrapolateEncoded(rp.ctx, enc, cfg)
	rp.log.end(id)
	if err != nil {
		return nil, err
	}
	skipped = sim.ReadReplayCounters().IterationsSkipped - skipped
	rp.passes = append(rp.passes, pass{parent: id, req: req, key: key, enc: enc, skippedIters: skipped})
	return pred, nil
}

// measure runs a cache miss through the measure, encode and store layers.
func (rp *replayer) measure(req, parent int, p *program, key core.CacheKey) ([]byte, error) {
	if p.factory == nil {
		p.factory = p.bench.Factory(p.size)
	}
	id := rp.log.begin(parent, req, "measure")
	tr, err := core.MeasureContext(rp.ctx, p.factory(key.Threads), key.Opts)
	rp.log.end(id)
	if err != nil {
		return nil, err
	}
	id = rp.log.begin(parent, req, "encode")
	var buf bytes.Buffer
	err = trace.WriteBinaryFormat(&buf, tr, trace.FormatXTRP2)
	rp.log.end(id)
	if err != nil {
		return nil, err
	}
	enc := buf.Bytes()
	id = rp.log.begin(parent, req, "store")
	rp.store.PutTrace(key, trace.FormatXTRP2, enc)
	rp.log.end(id)
	rp.cache[key] = enc
	rp.c.measuredEvents += int64(len(tr.Events))
	rp.c.rawBytes += trace.EncodedSize(tr.Header(), len(tr.Events))
	rp.c.encodedBytes += int64(len(enc))
	rp.c.puts++
	return enc, nil
}

// decodePasses times, on their own, the two layers ExtrapolateEncoded
// interleaves with simulation: compiling the XTRP2 bytes into a pattern
// source, and translating as many events as the simulation did not
// skip. They are children of the simulate span whose input they re-run.
func (rp *replayer) decodePasses(p pass) error {
	id := rp.log.begin(p.parent, p.req, "compile")
	ps, err := trace.NewPatternSource(p.enc)
	rp.log.end(id)
	if err != nil {
		return err
	}
	declared := ps.Declared()
	var skipped uint64
	if p.skippedIters > 0 {
		ops, ok := rp.ops[p.key]
		if !ok {
			if ops, err = repeatOps(p.enc); err != nil {
				return err
			}
			rp.ops[p.key] = ops
		}
		skipped = skippedEvents(ops, p.skippedIters)
	}
	n := declared - min(skipped, declared)
	id = rp.log.begin(p.parent, p.req, "translate")
	s, err := translate.NewStream(ps.Header(), ps, translate.StreamOptions{})
	if err == nil {
		err = readEvents(s, n)
	}
	rp.log.end(id)
	rp.c.simulatedEvents += int64(declared)
	rp.c.translatedEvents += int64(n)
	return err
}

// readEvents reads n translated events from s, taking one from each
// thread's cursor in turn, as a time-ordered consumer like the simulator
// roughly does; reading the source through Drain instead would buffer
// the whole translated trace.
func readEvents(s *translate.Stream, n uint64) error {
	cur := make([]trace.Reader, s.NumThreads())
	for i := range cur {
		cur[i] = s.Thread(i)
	}
	live := len(cur)
	for read := uint64(0); read < n && live > 0; {
		for i, c := range cur {
			if c == nil || read == n {
				continue
			}
			if _, err := c.Next(); err == io.EOF {
				cur[i] = nil
				live--
				continue
			} else if err != nil {
				return err
			}
			read++
		}
	}
	return nil
}

// repeatOp is one repeat op of a compiled pattern program: a body of
// bodyLen events replayed iters times.
type repeatOp struct{ bodyLen, iters uint64 }

// repeatOps walks enc's pattern program and lists its repeat ops.
func repeatOps(enc []byte) ([]repeatOp, error) {
	ps, err := trace.NewPatternSource(enc)
	if err != nil {
		return nil, err
	}
	var ops []repeatOp
	last := -1
	for {
		if _, err := ps.Next(); err == io.EOF {
			return ops, nil
		} else if err != nil {
			return nil, err
		}
		if op, bodyLen, left, ok := ps.RepeatState(); ok && op != last {
			last = op
			ops = append(ops, repeatOp{uint64(bodyLen), left})
		}
	}
}

// skippedEvents estimates how many events a simulation that
// fast-forwarded over iters pattern iterations never translated. Fast-
// forward needs many iterations left in a repeat op, so the iterations
// are charged to the ops with the most iterations first, each keeping
// its last iteration.
func skippedEvents(ops []repeatOp, iters uint64) uint64 {
	ops = append([]repeatOp(nil), ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].iters > ops[j].iters })
	var events uint64
	for _, op := range ops {
		if iters == 0 || op.iters < 2 {
			break
		}
		k := min(iters, op.iters-1)
		events += k * op.bodyLen
		iters -= k
	}
	return events
}

func (rp *replayer) extrapolate(req, root int, reqBody, respBody []byte) error {
	var er serve.ExtrapolateRequest
	if err := json.Unmarshal(reqBody, &er); err != nil {
		return err
	}
	p, err := rp.program(req, root, er.Benchmark, er.Workload, er.Size, er.Iters)
	if err != nil {
		return err
	}
	env, err := machine.ByName(er.Machine)
	if err != nil {
		return err
	}
	cfg := env.Config
	cfg.Procs = er.Procs
	if cfg.Procs == 0 {
		cfg.Procs = er.Threads
	}
	pred, err := rp.cell(req, root, p, er.Threads, cfg)
	if err != nil || respBody == nil {
		return err
	}
	var resp serve.ExtrapolateResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return err
	}
	got := []float64{pred.Result.TotalTime.Millis(), pred.Measured1P.Millis(), pred.Ideal.Millis()}
	want := []float64{resp.PredictedMs, resp.Measured1PMs, resp.IdealMs}
	return samePredictions([][]float64{got}, [][]float64{want})
}

func (rp *replayer) sweep(req, root int, reqBody, respBody []byte) error {
	var sr serve.SweepRequest
	if err := json.Unmarshal(reqBody, &sr); err != nil {
		return err
	}
	p, err := rp.program(req, root, sr.Benchmark, sr.Workload, sr.Size, sr.Iters)
	if err != nil {
		return err
	}
	names := sr.Machines
	if len(names) == 0 {
		names = []string{sr.Machine}
	}
	envs := make([]machine.Env, len(names))
	for i, n := range names {
		if envs[i], err = machine.ByName(n); err != nil {
			return err
		}
	}
	ladder := sr.Procs
	if len(ladder) == 0 {
		ladder = defaultLadder
	}
	got := make([][]float64, len(envs))
	if sr.Mode == "fitted" {
		id := rp.log.begin(root, req, "fit")
		res, err := model.Run(rp.ctx, ladder, len(envs), func(_ context.Context, procs int) ([]vtime.Time, error) {
			ts := make([]vtime.Time, len(envs))
			for i, env := range envs {
				pred, err := rp.cell(req, id, p, procs, env.Config)
				if err != nil {
					return nil, err
				}
				ts[i] = pred.Result.TotalTime
			}
			return ts, nil
		}, model.Options{})
		rp.log.end(id)
		if err != nil {
			return err
		}
		for ci := range envs {
			for _, pt := range res.Curves[ci].Points {
				v := pt.Value / 1e6
				if pt.Simulated {
					v = pt.Exact.Millis()
				}
				got[ci] = append(got[ci], v)
			}
		}
	} else {
		for ci, env := range envs {
			for _, n := range ladder {
				pred, err := rp.cell(req, root, p, n, env.Config)
				if err != nil {
					return err
				}
				got[ci] = append(got[ci], pred.Result.TotalTime.Millis())
			}
		}
	}
	if respBody == nil {
		return nil
	}
	want, err := sweepPredictions(respBody, len(sr.Machines) > 0)
	if err != nil {
		return err
	}
	return samePredictions(got, want)
}

// sweepPredictions extracts each curve's predicted_ms from a sweep
// response.
func sweepPredictions(body []byte, multi bool) ([][]float64, error) {
	var curves [][]serve.SweepPoint
	if multi {
		var resp serve.MultiSweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		for _, c := range resp.Curves {
			curves = append(curves, c.Points)
		}
	} else {
		var resp serve.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		curves = append(curves, resp.Points)
	}
	out := make([][]float64, len(curves))
	for i, pts := range curves {
		for _, p := range pts {
			out[i] = append(out[i], p.PredictedMs)
		}
	}
	return out, nil
}

func samePredictions(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("replay has %d curves, response %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("curve %d: replay has %d values, response %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("curve %d value %d: replay predicts %v, response %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// traceRun sends the first traceK requests of the stream one at a time
// to a server set up as for the end-to-end run, timing each as a request
// span, and replays each in-process with spans at every layer boundary.
// Counts come from the server's /debug/vars around the phase.
func traceRun(e *env, w *workload, seed int64, chk *checker) (*result, float64, error) {
	stream := w.stream(seed)
	k := min(w.traceK, len(stream))
	dir := filepath.Join(e.runDir, "traced")
	// One sweep worker keeps the server's pipeline sequential, like the
	// replay whose spans are subtracted from its request time.
	srv, _, outs, err := setUp(e, w, dir, chk, "-workers", "1")
	if err != nil {
		return nil, 0, err
	}
	defer srv.stop()
	rp, err := newReplayer(filepath.Join(dir, "replay-store"))
	if err != nil {
		return nil, 0, err
	}
	defer rp.store.Close()
	for _, r := range w.warm {
		if err := rp.replay(0, 0, r, nil); err != nil {
			return nil, 0, err
		}
	}
	rp.reset()

	before, err := srv.snapshot(e.client)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for i := 0; i < k && time.Since(start) < maxPhase; i++ {
		r := stream[i]
		root := rp.log.begin(0, i+1, "request")
		status, body, err := send(e.client, srv.base, r)
		rp.log.end(root)
		if err == nil {
			err = chk.check(r, status, body)
		}
		if err == nil {
			err = rp.replay(i+1, root, r, body)
		}
		outs = append(outs, outcome{err: err})
		rp.c.requests++
		rp.c.cells += int64(r.cells)
	}
	after, err := srv.snapshot(e.client)
	if err != nil {
		return nil, 0, err
	}
	if err := writeSpans(filepath.Join(e.root, "bench", "out", fmt.Sprintf("%s-%d.spans.jsonl", w.name, seed)), rp.log.spans); err != nil {
		return nil, 0, err
	}
	steal := stealShare(before.steal, after.steal)
	m := ledger(rp.log.spans, rp.c, before.vars, after.vars, steal)
	hits := after.vars.Serve.CacheHits - before.vars.Serve.CacheHits
	misses := after.vars.Serve.CacheMisses - before.vars.Serve.CacheMisses
	warnHitRatio(w, hits, misses)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d traced requests, %d cells\n%s", w.name, seed, rp.c.requests, rp.c.cells, breakdownTable(m))
	res := tally(outs)
	res.Metrics = m
	return res, steal, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers maps each layer to the span that times it, in pipeline order.
var layers = []struct{ layer, span string }{
	{"serve", "request"},
	{"compose", "compose"},
	{"measure", "measure"},
	{"encode", "encode"},
	{"store", "store"},
	{"compile", "compile"},
	{"translate", "translate"},
	{"simulate", "simulate"},
	{"fit", "fit"},
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger turns spans and counts into the per-layer metrics. Self times
// are per request; shares are of the summed request time, so the shares
// of all layers add up to one.
func ledger(spans []span, c layerCounts, before, after serverVars, steal float64) map[string]metric {
	self := selfNs(spans)
	layerNs := map[string]float64{}
	var requestNs float64
	for i, s := range spans {
		layerNs[s.Name] += float64(self[i])
		if s.Name == "request" {
			requestNs += float64(s.End - s.Start)
		}
	}
	reqs, cells := float64(c.requests), float64(c.cells)
	m := map[string]metric{}
	for _, l := range layers {
		m[l.layer+".self_ms"] = metric{layerNs[l.span] / 1e6 / reqs, "ms"}
		m[l.layer+".share"] = metric{ratio(layerNs[l.span], requestNs), "ratio"}
	}
	d := func(a, b int64) float64 { return float64(b - a) }
	bs, as := before.Serve, after.Serve
	ff := d(bs.Sim.Attempts, as.Sim.Attempts)
	anchors := d(bs.Fitted.AnchorsSimulated, as.Fitted.AnchorsSimulated)
	hits := d(bs.CacheHits, as.CacheHits)
	for name, v := range map[string]metric{
		"serve.rejected":                  {d(bs.Rejected, as.Rejected), "count"},
		"compose.nodes_per_spec":          {ratio(float64(c.specNodes), float64(c.specs)), "count"},
		"measure.ns_per_event":            {ratio(layerNs["measure"], float64(c.measuredEvents)), "ns"},
		"measure.events_per_cell":         {float64(c.measuredEvents) / cells, "count"},
		"encode.ns_per_event":             {ratio(layerNs["encode"], float64(c.measuredEvents)), "ns"},
		"encode.compression_x":            {ratio(float64(c.rawBytes), float64(c.encodedBytes)), "x"},
		"store.bytes_per_put":             {ratio(float64(c.encodedBytes), float64(c.puts)), "B"},
		"store.puts_per_req":              {float64(c.puts) / reqs, "count"},
		"translate.ns_per_event":          {ratio(layerNs["translate"], float64(c.translatedEvents)), "ns"},
		"simulate.ns_per_event":           {ratio(layerNs["simulate"], float64(c.simulatedEvents)), "ns"},
		"simulate.ffwd_attempts_per_cell": {ff / cells, "count"},
		"simulate.ffwd_hit_ratio":         {ratio(d(bs.Sim.FastForwards, as.Sim.FastForwards), ff), "ratio"},
		"simulate.iters_skipped_per_cell": {d(bs.Sim.IterationsSkipped, as.Sim.IterationsSkipped) / cells, "count"},
		"simulate.fallbacks_per_cell":     {d(bs.Sim.Fallbacks, as.Sim.Fallbacks) / cells, "count"},
		"fit.anchor_share":                {ratio(anchors, anchors+d(bs.Fitted.CellsFitted, as.Fitted.CellsFitted)), "ratio"},
		"fit.iterations_per_run":          {ratio(d(bs.Fitted.FitIterations, as.Fitted.FitIterations), d(bs.Fitted.Runs, as.Fitted.Runs)), "count"},
		"cache.hit_ratio":                 {ratio(hits, hits+d(bs.CacheMisses, as.CacheMisses)), "ratio"},
		"process.alloc_kb_per_cell":       {float64(after.Memstats.TotalAlloc-before.Memstats.TotalAlloc) / 1024 / cells, "KB"},
		"process.gc_per_kcell":            {float64(after.Memstats.NumGC-before.Memstats.NumGC) * 1000 / cells, "count"},
		"host.steal_share":                {steal, "ratio"},
	} {
		m[name] = v
	}
	return m
}

// breakdownTable renders the per-layer self times and shares as the
// Markdown table bench/README.md publishes.
func breakdownTable(m map[string]metric) string {
	var b strings.Builder
	b.WriteString("| layer | self ms/request | share |\n|---|---:|---:|\n")
	for _, l := range layers {
		fmt.Fprintf(&b, "| %s | %.3f | %.1f%% |\n", l.layer, m[l.layer+".self_ms"].Value, 100*m[l.layer+".share"].Value)
	}
	return b.String()
}
