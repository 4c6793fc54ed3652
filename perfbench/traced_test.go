package perfbench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"actdsm"
	"actdsm/internal/core"
	"actdsm/internal/dsm"
	"actdsm/internal/memlayout"
	"actdsm/internal/msg"
	"actdsm/internal/placement"
	"actdsm/internal/serve"
	"actdsm/internal/sim"
	"actdsm/internal/threads"
)

// The traced run. It first measures untraced passes through the facade
// (the throughput the tracing overhead is charged against, and the
// runtime's GC figures), then traced passes on a stack assembled from
// the layers' own constructors, composed exactly as System.RunContext
// composes it, so that the controller and the tracker can be timed at
// their hook boundaries. Both halves must produce the same exact virtual
// results. Spans are kept in memory and written out when the run ends.

// maxCallSpans bounds the transport-call spans kept for the span file
// (about 15 MB); the per-kind aggregates stay exact beyond it. The other
// spans (passes, iterations, barriers, controller and tracker work) are
// few and always kept.
const maxCallSpans = 100_000

// span is one timed interval. Times are nanoseconds since the run began.
type span struct {
	id, parent  int64
	name        string
	lane        int // 0 for the engine, 1+n for transport calls from node n
	start, dur  int64
	iter, extra int64
}

// kindAgg accumulates one message kind's transport calls.
type kindAgg struct {
	calls, bytes, failed int64
	durUS                []float64 // wall time of each call
}

// kindRow is one line of the per-message-kind table.
type kindRow struct {
	Kind   string  `json:"kind"`
	Calls  int64   `json:"calls"`
	Bytes  int64   `json:"bytes"`
	Failed int64   `json:"failed"`
	P50US  float64 `json:"wall_p50_us"`
	P99US  float64 `json:"wall_p99_us"`
}

// tracer holds a traced run's spans and per-layer aggregates. Hook and
// observer callbacks run on the engine goroutine; transport calls
// arrive from any goroutine and take mu.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	curIter atomic.Int64 // span id of the iteration in progress

	mu        sync.Mutex
	spans     []span
	callSpans int
	dropped   int64
	kinds     map[msg.Kind]*kindAgg

	// Engine-goroutine state.
	passID     int64
	iterStart  time.Time
	barStart   time.Time
	iterMS     []float64 // measured iterations only
	slices     int64
	migrations int64
	trackNS    int64 // wall time of iterations with tracking faults
	hookNS     int64 // wall time inside the tracker's hook callbacks
	evalNS     []int64
	cpuNS      map[string]int64 // profile fold over measured spans
	prof       bytes.Buffer

	diffsApplied atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), kinds: map[msg.Kind]*kindAgg{}, cpuNS: map[string]int64{}}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// transportCall is the dsm.Probe.TransportCall hook: one span per
// logical call, parented to the iteration in progress.
func (t *tracer) transportCall(from, _ int, kind msg.Kind, bytes int, wall time.Duration, failed bool) {
	end := time.Now()
	t.mu.Lock()
	a := t.kinds[kind]
	if a == nil {
		a = &kindAgg{}
		t.kinds[kind] = a
	}
	a.calls++
	a.bytes += int64(bytes)
	a.durUS = append(a.durUS, float64(wall)/1e3)
	if failed {
		a.failed++
	}
	if t.callSpans < maxCallSpans {
		t.callSpans++
		t.spans = append(t.spans, span{
			id: t.nextID.Add(1), parent: t.curIter.Load(), name: kind.String(), lane: 1 + from,
			start: t.since(end) - int64(wall), dur: int64(wall), extra: int64(bytes),
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Observer: the engine's scheduler events.
func (t *tracer) SliceEnd(int, int, int, sim.ThreadInterval)                          { t.slices++ }
func (t *tracer) LockStall(int, int, int32, sim.Time)                                 {}
func (t *tracer) EpochEnd(int, int, sim.Time, sim.Time, sim.Time, sim.Time, sim.Time) {}
func (t *tracer) Migrated(int, int, int, sim.Time, sim.Time)                          { t.migrations++ }

var _ threads.Observer = (*tracer)(nil)

// tracedPass is one pass of the workload on the assembled stack.
type tracedPass struct {
	t       *tracer
	s       spec
	cl      *dsm.Cluster
	warm    int
	mark    point
	profOn  bool
	lastTrk int64
}

// engineHooks are the innermost hooks: iteration and barrier spans, the
// warm-up mark, and the CPU profile of the measured span.
func (tp *tracedPass) engineHooks() threads.Hooks {
	t := tp.t
	return threads.Hooks{
		OnIteration: func(iter int) {
			at := time.Now()
			d := at.Sub(t.iterStart)
			name := "iteration"
			if tp.s.serving() {
				name = "window"
			}
			t.addSpan(span{id: t.curIter.Load(), parent: t.passID, name: name,
				start: t.since(t.iterStart), dur: int64(d), iter: int64(iter)})
			if trk := tp.cl.Stats().TrackingFaults.Load(); trk != tp.lastTrk {
				t.trackNS += int64(d)
				tp.lastTrk = trk
			}
			if iter >= tp.warm {
				t.iterMS = append(t.iterMS, float64(d)/1e6)
			}
			if iter == tp.warm-1 {
				tp.mark = now()
				t.prof.Reset()
				if err := pprof.StartCPUProfile(&t.prof); err == nil {
					tp.profOn = true
				}
			}
			t.curIter.Store(t.nextID.Add(1))
			t.iterStart = time.Now()
		},
		OnBarrier: func() {
			at := time.Now()
			t.addSpan(span{id: t.nextID.Add(1), parent: t.curIter.Load(), name: "barrier_episode",
				start: t.since(t.barStart), dur: int64(at.Sub(t.barStart))})
			t.barStart = at
		},
	}
}

// timeController times the controller's evaluation: its OnIteration work
// runs before it calls the next hook.
func (tp *tracedPass) timeController(ctrl *placement.Controller, inner threads.Hooks) threads.Hooks {
	t := tp.t
	var start time.Time
	h := ctrl.Hooks(threads.Hooks{
		OnIteration: func(iter int) {
			d := time.Since(start)
			t.evalNS = append(t.evalNS, int64(d))
			t.addSpan(span{id: t.nextID.Add(1), parent: t.curIter.Load(), name: "placement.eval",
				start: t.since(start), dur: int64(d), iter: int64(iter)})
			inner.OnIteration(iter)
		},
		OnBarrier:   inner.OnBarrier,
		OnThreadRun: inner.OnThreadRun,
	})
	out := h
	out.OnIteration = func(iter int) {
		start = time.Now()
		h.OnIteration(iter)
	}
	return out
}

// timeTracker times the active tracker's work in each hook callback: the
// tracker does its work before calling the next hook.
func (tp *tracedPass) timeTracker(tr *core.ActiveTracker, inner threads.Hooks) threads.Hooks {
	t := tp.t
	var start time.Time
	open := false
	stop := func(name string) {
		if !open {
			return
		}
		open = false
		d := time.Since(start)
		t.hookNS += int64(d)
		if name != "" {
			t.addSpan(span{id: t.nextID.Add(1), parent: t.curIter.Load(), name: name,
				start: t.since(start), dur: int64(d)})
		}
	}
	h := tr.Hooks(threads.Hooks{
		OnIteration: func(iter int) { stop("core.track_iteration"); inner.OnIteration(iter) },
		OnBarrier:   func() { stop("core.track_barrier"); inner.OnBarrier() },
		OnThreadRun: func(node, tid int) {
			stop("")
			if inner.OnThreadRun != nil {
				inner.OnThreadRun(node, tid)
			}
		},
	})
	return threads.Hooks{
		OnIteration: func(iter int) {
			start, open = time.Now(), true
			h.OnIteration(iter)
			stop("core.track_iteration")
		},
		OnBarrier: func() {
			start, open = time.Now(), true
			h.OnBarrier()
			stop("core.track_barrier")
		},
		OnThreadRun: func(node, tid int) {
			start, open = time.Now(), true
			h.OnThreadRun(node, tid)
			stop("")
		},
	}
}

// pass runs one traced pass.
func (t *tracer) pass(s spec, seed uint64) pass {
	var p pass
	start := now()
	t.passID = t.nextID.Add(1)
	t.curIter.Store(t.nextID.Add(1))
	t.iterStart, t.barStart = start.wall, start.wall
	tp := &tracedPass{t: t, s: s, warm: s.warmup()}
	defer func() {
		t.addSpan(span{id: t.passID, name: "pass", start: t.since(start.wall), dur: int64(time.Since(start.wall))})
	}()

	w, kv, err := s.newWorkload(seed)
	if err != nil {
		p.ops.check("build workload", err)
		return p
	}
	layout := memlayout.NewLayout()
	if err := w.Setup(layout); err != nil {
		p.ops.check("set up workload", err)
		return p
	}
	ccfg := s.clusterConfig()
	ccfg.Nodes, ccfg.Pages = s.nodes, layout.TotalPages()
	cl, err := dsm.New(ccfg)
	if err != nil {
		p.ops.check("build cluster", err)
		return p
	}
	defer func() { _ = cl.Close() }()
	tp.cl = cl
	eng, err := threads.NewEngine(cl, threads.Config{
		Threads: w.Threads(), SchedulerEnabled: true, ShuffleSeed: s.shuffleSeed(seed),
	})
	if err != nil {
		p.ops.check("build engine", err)
		return p
	}
	hooks := tp.engineHooks()
	var ctrl *placement.Controller
	var tracker *core.ActiveTracker
	if kv != nil {
		ccfg := actdsm.DefaultControllerConfig()
		tracker = core.NewActiveTracker(eng, max(ccfg.TrackIteration, 1))
		if ctrl, err = placement.NewController(cl, eng, tracker, ccfg); err != nil {
			p.ops.check("build controller", err)
			return p
		}
		hooks = tp.timeController(ctrl, hooks)
		hooks = kv.(*serve.KV).ServingHooks(hooks, eng.Elapsed, cl.Stats().Snapshot)
		hooks = tp.timeTracker(tracker, hooks)
	}
	eng.SetHooks(hooks)
	if tracker != nil {
		tracker.Start()
	}
	eng.SetObserver(t)
	cl.SetProbe(&dsm.Probe{
		TransportCall: t.transportCall,
		DiffApplied:   func(int, dsm.ApplySource, msg.Notice) { t.diffsApplied.Add(1) },
	})

	err = eng.Run(w.Body)
	end := now()
	if tp.profOn {
		pprof.StopCPUProfile()
		p.ops.check("fold CPU profile", foldProfile(t.prof.Bytes(), t.cpuNS))
	}
	if err == nil && ctrl != nil {
		err = ctrl.Err()
	}
	p.ops.check("run and verify", err)
	if err != nil {
		return p
	}
	if !tp.profOn {
		p.ops.check("start CPU profile", errors.New("profile never started"))
		return p
	}
	p.span(start, tp.mark, end)
	s.finish(&p, cl, eng.Elapsed(), kv)
	return p
}

// kindTable renders the per-message-kind aggregates, ordered by kind.
func (t *tracer) kindTable() []kindRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ks []msg.Kind
	for k := range t.kinds {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	var out []kindRow
	for _, k := range ks {
		a := t.kinds[k]
		out = append(out, kindRow{
			Kind: k.String(), Calls: a.calls, Bytes: a.bytes, Failed: a.failed,
			P50US: quantile(a.durUS, 0.5), P99US: quantile(a.durUS, 0.99),
		})
	}
	return out
}

// callTotals folds every kind's calls into run-wide totals.
func (t *tracer) callTotals() (calls, bytes, failed int64, durUS []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.kinds {
		calls += a.calls
		bytes += a.bytes
		failed += a.failed
		durUS = append(durUS, a.durUS...)
	}
	return calls, bytes, failed, durUS
}

// writeSpans writes the spans as Chrome trace-event JSON (loadable in
// Perfetto), under one root span covering the whole run.
func (t *tracer) writeSpans(path, run string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	spans := append([]span{{id: 0, parent: -1, name: "run " + run, dur: int64(time.Since(t.t0))}}, t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	fmt.Fprintf(w, "{\"dropped_spans\":%d,\"traceEvents\":[\n", dropped)
	for i, s := range spans {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(w, "%s{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"iter\":%d,\"bytes\":%d}}\n",
			sep, s.name, s.lane, float64(s.start)/1e3, float64(s.dur)/1e3, s.id, s.parent, s.iter, s.extra)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// tracedRun measures the per-layer metrics.
func tracedRun(cfg runConfig) (*result, error) {
	s := cfg.spec
	res := newResult(cfg, true)
	half := cfg.budget / 2
	base := passes(half, func() pass { return s.facadePass(cfg.seed, s.nodes) })
	t := newTracer()
	traced := passes(half, func() pass { return t.pass(s, cfg.seed) })
	single := s.facadePass(cfg.seed, 1)
	res.logPasses(base, false)
	res.logPasses(traced, true)
	var vs []virtual
	for _, p := range append(base, traced...) {
		res.addOps(p.ops)
		vs = append(vs, p.virt)
	}
	res.addOps(single.ops)
	if res.Failed == 0 {
		res.addOps(checkVirtual(cfg, vs))
	}
	base, traced = succeeded(base), succeeded(traced)
	res.endToEnd(s, base)
	res.perLayer(t, base, traced, single)
	var bytesPerDiff float64
	if m, ok := res.metric("dsm.diff_bytes_per_diff"); ok {
		bytesPerDiff = m.Value
	}
	dm, err := densityLeg(cfg.seed, bytesPerDiff)
	var o ops
	o.check("diff-density leg", err)
	res.addOps(o)
	res.Metrics = append(res.Metrics, dm...)
	res.Kinds = t.kindTable()
	if cfg.dir != "" {
		// One file per workload: the latest traced run's spans.
		res.SpanFile = filepath.Join(cfg.dir, "traces", s.name+".json")
		if err := t.writeSpans(res.SpanFile, fmt.Sprintf("%s seed %d", s.name, cfg.seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// perLayer adds the per-layer metrics. Counts are per pass (every pass
// of a seed does the same protocol work); CPU and wall times are per
// pass over the measured span; runtime figures come from the untraced
// passes.
func (r *result) perLayer(t *tracer, base, traced []pass, single pass) {
	n := len(traced)
	if n == 0 {
		return
	}
	per := func(x float64) float64 { return x / float64(n) }
	var total int64
	for _, b := range cpuBuckets {
		r.add(b.metric, per(float64(t.cpuNS[b.bucket])/1e9), "s", 0)
		total += t.cpuNS[b.bucket]
	}
	r.add("profile.cpu_s", per(float64(total)/1e9), "s", 0)
	r.add("apps.single_node_s", single.spanS, "s", 0)

	snap := traced[0].snap
	r.add("vm.coherence_faults", float64(snap.CoherenceFaults), "count", 0)
	r.add("vm.tracking_faults", float64(snap.TrackingFaults), "count", 0)
	r.add("dsm.diffs", float64(snap.DiffsCreated), "count", 0)
	r.add("dsm.twins", float64(snap.TwinsCreated), "count", 0)
	bpd := 0.0
	if applied := t.diffsApplied.Load(); applied > 0 {
		bpd = float64(snap.BytesDiff) / per(float64(applied))
	}
	r.add("dsm.diff_bytes_per_diff", bpd, "B", 0)
	r.add("dsm.page_fetches", float64(snap.PageFetches), "count", 0)
	r.add("dsm.diff_fetches", float64(snap.DiffFetches), "count", 0)
	r.add("dsm.lock_acquires", float64(snap.LockAcquires), "count", 0)
	r.add("dsm.barriers", float64(snap.Barriers), "count", 0)
	r.add("dsm.gc_rounds", float64(snap.GCRounds), "count", 0)

	calls, bytes, failed, durUS := t.callTotals()
	bpc := 0.0
	if calls > 0 {
		bpc = float64(bytes) / float64(calls)
	}
	r.add("msg.bytes_per_call", bpc, "B", int(calls))
	r.add("transport.calls", per(float64(calls)), "count", 0)
	r.add("transport.failed", per(float64(failed)), "count", 0)
	var retries int64
	for _, c := range snap.Calls {
		retries += c.Retries
	}
	r.add("transport.retries", float64(retries), "count", 0)
	r.add("transport.call_us_p50", quantile(durUS, 0.5), "us", len(durUS))
	r.add("transport.call_us_p99", quantile(durUS, 0.99), "us", len(durUS))

	var cpu, wall float64
	for _, p := range base {
		cpu += p.cpuS
		wall += p.spanS
	}
	util := 0.0
	if wall > 0 {
		util = cpu / wall
	}
	r.add("threads.cpu_util", util, "ratio", len(base))
	r.add("threads.slices", per(float64(t.slices)), "count", 0)
	r.add("threads.migrations", per(float64(t.migrations)), "count", 0)
	r.add("threads.iter_ms_p50", quantile(t.iterMS, 0.5), "ms", len(t.iterMS))
	r.add("threads.iter_ms_max", quantile(t.iterMS, 1), "ms", len(t.iterMS))

	r.add("core.track_ms", per(float64(t.trackNS)/1e6), "ms", 0)
	r.add("core.tracker_hook_ms", per(float64(t.hookNS)/1e6), "ms", 0)

	var evalTotal, evalMax int64
	for _, d := range t.evalNS {
		evalTotal += d
		evalMax = max(evalMax, d)
	}
	r.add("placement.evals", float64(snap.PlacementTriggers), "count", 0)
	r.add("placement.eval_ms_total", per(float64(evalTotal)/1e6), "ms", 0)
	r.add("placement.eval_ms_max", float64(evalMax)/1e6, "ms", len(t.evalNS))
	r.add("placement.thread_moves", float64(snap.PlacementThreadMoves), "count", 0)
	r.add("placement.home_moves", float64(snap.PlacementHomeMoves), "count", 0)

	r.add("runtime.gc_cpu_s", median(perPass(base, func(p pass) float64 { return p.gcCPUS })), "s", len(base))
	r.add("runtime.mallocs", median(perPass(base, func(p pass) float64 { return p.mallocs })), "count", len(base))
	r.add("runtime.gc_cycles", median(perPass(base, func(p pass) float64 { return p.gcs })), "count", len(base))

	rate := func(p pass) float64 { return float64(p.windows) / p.spanS }
	overhead := 0.0
	if b := median(perPass(base, rate)); b > 0 {
		overhead = 1 - median(perPass(traced, rate))/b
	}
	r.add("trace.overhead_frac", overhead, "ratio", len(traced))
	r.add("trace.dropped_spans", float64(t.dropped), "count", 0)
}
