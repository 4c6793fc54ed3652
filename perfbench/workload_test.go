package perfbench

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"actdsm"
)

// spec is one benchmark workload: an application or the serving KV, the
// cluster it runs on, and how much work one pass does.
type spec struct {
	name    string
	app     string // "SOR" or "Water"; empty selects the serving KV
	threads int
	nodes   int
	iters   int // iterations per pass (apps)
	tcp     bool
	scale   actdsm.Scale
	serve   actdsm.ServingConfig
}

// Workloads. Each stresses a different layer (see BENCHMARK.json):
//
//   - sor-paper is barrier-only with densely rewritten pages, so the
//     twin/diff/apply path and app compute dominate; no locks, sockets
//     or controller.
//   - water-tcp is lock-heavy with sparse diffs over the loopback TCP
//     mux, so transport and msg dominate.
//   - serve-ctl is the zipfian KV with the online placement controller,
//     the only workload where core (active tracking) and placement work.
func specs() map[string]spec {
	return map[string]spec{
		"sor-paper": {name: "sor-paper", app: "SOR", threads: 64, nodes: 8, iters: 5, scale: actdsm.ScalePaper},
		"water-tcp": {name: "water-tcp", app: "Water", threads: 64, nodes: 4, iters: 8, tcp: true, scale: actdsm.ScalePaper},
		"serve-ctl": {name: "serve-ctl", nodes: 4, serve: actdsm.ServingConfig{
			Clients:           16,
			Keys:              4096,
			ValueBytes:        512,
			ReadFraction:      0.9,
			ZipfS:             1.1,
			Groups:            4,
			RequestsPerWindow: 64,
			WarmupWindows:     2,
			MeasureWindows:    240,
		}},
	}
}

// tiny shrinks a spec to test-scale inputs for the self-test.
func (s spec) tiny() spec {
	if !s.serving() {
		s.scale = actdsm.ScaleTest
		s.threads = 16
		s.iters = 3
	} else {
		s.serve.Keys = 256
		s.serve.MeasureWindows = 4
	}
	return s
}

// serving reports whether the spec is the serving KV.
func (s spec) serving() bool { return s.app == "" }

// warmup is the number of leading iterations (windows) that set-up time
// covers: data initialisation and cold faults.
func (s spec) warmup() int {
	if s.serving() {
		return s.serve.WarmupWindows
	}
	return 1
}

// measured is the number of iterations (windows) after warm-up.
func (s spec) measured() int {
	if s.serving() {
		return s.serve.MeasureWindows
	}
	return s.iters - 1
}

// expectedRequests is the serving request count of the measured span:
// clients × quota × windows.
func (s spec) expectedRequests() int64 {
	return int64(s.serve.Clients) * int64(s.serve.RequestsPerWindow) * int64(s.serve.MeasureWindows)
}

// servingConfig is the KV configuration for a seed: the seed derives
// every client's request stream.
func (s spec) servingConfig(seed uint64) actdsm.ServingConfig {
	c := s.serve
	c.Seed = seed
	return c
}

// clusterConfig is the DSM configuration shared by the facade and the
// traced stack.
func (s spec) clusterConfig() actdsm.ClusterConfig {
	return actdsm.ClusterConfig{UseTCP: s.tcp, BatchDiffs: s.serving()}
}

// shuffleSeed is the engine's thread-order seed: the apps shuffle
// per-node thread order with the run's seed.
func (s spec) shuffleSeed(seed uint64) uint64 {
	if s.serving() {
		return 0
	}
	return seed
}

// newWorkload builds the workload for one pass. kv is non-nil for the
// serving KV.
func (s spec) newWorkload(seed uint64) (actdsm.Workload, actdsm.ServingApp, error) {
	if s.serving() {
		kv, err := actdsm.NewServingApp(s.servingConfig(seed))
		return kv, kv, err
	}
	app, err := actdsm.NewApp(s.app, actdsm.AppConfig{
		Threads: s.threads, Iterations: s.iters, Verify: true, Scale: s.scale,
	})
	return app, nil, err
}

// virtual holds a pass's exact virtual-time results. They depend only
// on the program and the seed, so every pass of one seed must repeat
// them bit for bit.
type virtual struct {
	SimNS        int64   `json:"sim_ns"`
	RemoteMisses int64   `json:"remote_misses"`
	Messages     int64   `json:"messages"`
	WireBytes    int64   `json:"wire_bytes"`
	Requests     int64   `json:"requests"`
	Reads        int64   `json:"reads"`
	Writes       int64   `json:"writes"`
	QPS          float64 `json:"qps"`
	P50NS        int64   `json:"p50_ns"`
	P99NS        int64   `json:"p99_ns"`
	P999NS       int64   `json:"p999_ns"`
}

// ops counts operations attempted and failed: transport calls,
// verifications, coherence checks, virtual-result checks and serving
// requests.
type ops struct {
	attempted, failed int64
	errs              []string
}

func (o *ops) check(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.errs = append(o.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// pass is one construction-to-teardown run of a workload.
type pass struct {
	setupS  float64 // wall time from construction to the end of warm-up
	spanS   float64 // wall time of the measured iterations
	cpuS    float64 // process CPU over the measured span
	allocB  float64 // heap bytes allocated over the measured span
	mallocs float64 // heap objects allocated over the measured span
	gcs     float64 // GC cycles completed over the measured span
	gcCPUS  float64 // GC CPU over the measured span
	windows int     // measured iterations (windows)
	virt    virtual
	snap    actdsm.Snapshot
	ops     ops
}

// point is a wall, CPU and Go runtime reading.
type point struct {
	wall     time.Time
	cpu      float64
	alloc    uint64
	mallocs  uint64
	gcCycles uint64
	gcCPU    float64
}

func now() point {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rt := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(rt)
	return point{
		wall:     time.Now(),
		cpu:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		alloc:    rt[0].Value.Uint64(),
		mallocs:  rt[1].Value.Uint64(),
		gcCycles: rt[2].Value.Uint64(),
		gcCPU:    rt[3].Value.Float64(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// span fills the measured-span fields from the warm-up mark to the end.
func (p *pass) span(start, mark, end point) {
	p.setupS = mark.wall.Sub(start.wall).Seconds()
	p.spanS = end.wall.Sub(mark.wall).Seconds()
	p.cpuS = end.cpu - mark.cpu
	p.allocB = float64(end.alloc - mark.alloc)
	p.mallocs = float64(end.mallocs - mark.mallocs)
	p.gcs = float64(end.gcCycles - mark.gcCycles)
	p.gcCPUS = end.gcCPU - mark.gcCPU
}

// finish records the cluster's results and runs the per-pass checks
// every run makes: the coherence check, the transport call table, and
// for the serving KV the request accounting.
func (s spec) finish(p *pass, cl *actdsm.Cluster, elapsed actdsm.Time, kv actdsm.ServingApp) {
	p.ops.check("coherence check", cl.CheckCoherence())
	p.snap = cl.Stats().Snapshot()
	for _, c := range p.snap.Calls {
		p.ops.attempted += c.Count
		p.ops.failed += c.Errors
	}
	p.virt.SimNS = int64(elapsed)
	p.virt.RemoteMisses = p.snap.RemoteMisses
	p.virt.Messages = p.snap.Messages
	p.virt.WireBytes = p.snap.BytesTotal
	p.windows = s.measured()
	if kv == nil {
		return
	}
	rep, err := kv.Report()
	if err != nil {
		p.ops.check("serve report", err)
		return
	}
	want := s.expectedRequests()
	p.ops.attempted += want
	p.ops.failed += abs(want-rep.Requests) + abs(rep.Requests-rep.Reads-rep.Writes)
	if rep.Requests != want || rep.Reads+rep.Writes != rep.Requests {
		p.ops.errs = append(p.ops.errs, fmt.Sprintf("serve: %d requests (%d reads + %d writes), want %d",
			rep.Requests, rep.Reads, rep.Writes, want))
	}
	p.virt.Requests, p.virt.Reads, p.virt.Writes = rep.Requests, rep.Reads, rep.Writes
	p.virt.QPS = rep.QPS
	p.virt.P50NS, p.virt.P99NS, p.virt.P999NS = int64(rep.P50), int64(rep.P99), int64(rep.P999)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// facadePass runs one pass through the public facade (NewSystem + Run)
// with no instrumentation beyond a warm-up marker hook.
func (s spec) facadePass(seed uint64, nodes int) pass {
	var p pass
	start := now()
	w, kv, err := s.newWorkload(seed)
	if err != nil {
		p.ops.check("build workload", err)
		return p
	}
	opts := []actdsm.SystemOption{actdsm.WithConfig(actdsm.SystemConfig{
		Cluster:     s.clusterConfig(),
		ShuffleSeed: s.shuffleSeed(seed),
		Serving:     s.servingConfig(seed),
	})}
	if s.serving() {
		opts = append(opts, actdsm.WithPlacementController(actdsm.DefaultControllerConfig()))
	}
	sys, err := actdsm.NewSystem(w, nodes, opts...)
	if err != nil {
		p.ops.check("build system", err)
		return p
	}
	defer func() { _ = sys.Close() }()
	var mark point
	warm := s.warmup() - 1
	if err := sys.SetHooks(actdsm.Hooks{OnIteration: func(iter int) {
		if iter == warm {
			mark = now()
		}
	}}); err != nil {
		p.ops.check("set hooks", err)
		return p
	}
	err = sys.Run()
	end := now()
	p.ops.check("run and verify", err)
	if err != nil {
		return p
	}
	if mark.wall.IsZero() {
		p.ops.check("warm-up marker", errors.New("warm-up iteration never completed"))
		return p
	}
	p.span(start, mark, end)
	s.finish(&p, sys.Cluster(), sys.Elapsed(), kv)
	return p
}

// passes runs fn repeatedly for about budget, always at least once, and
// starts another pass only when the longest pass so far still fits.
// Garbage from one pass is collected before the next is timed.
func passes(budget time.Duration, fn func() pass) []pass {
	deadline := time.Now().Add(budget)
	var out []pass
	var longest time.Duration
	for {
		runtime.GC()
		t0 := time.Now()
		out = append(out, fn())
		if d := time.Since(t0); d > longest {
			longest = d
		}
		if out[len(out)-1].ops.failed > 0 || time.Now().Add(longest).After(deadline) {
			return out
		}
	}
}

// succeeded keeps the passes with no failed operation.
func succeeded(ps []pass) []pass {
	var out []pass
	for _, p := range ps {
		if p.ops.failed == 0 {
			out = append(out, p)
		}
	}
	return out
}
