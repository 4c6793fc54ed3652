package experiments

// Transport throughput comparison: the BENCH_transport.json generator
// and regression gate. Two legs:
//
// Real-TCP leg (wall-clock). The transport bench harness
// (transport.RunBench) hammers echo handlers over real loopback TCP
// sockets under both wire disciplines — the serialized
// one-outstanding-call baseline and the multiplexed pipelined stream —
// and reports the throughput ratio. Each request holds an injected
// service time (BenchOptions.HoldUS), so the ratio measures how much of
// the service schedule the discipline lets overlap, which is stable on
// single-core CI runners (same device as the hotpath gate's
// ServiceHoldUS). The zero-copy claim is measured directly: the
// steady-state mux round trip must stay at ~0 allocs/op.
//
// Heterogeneous leg (deterministic). A verified SOR run over a
// FastSlowTopology on the simulated cluster, recording the virtual-time
// stretch versus the uniform run and the per-directed-link call/byte
// traffic. These are pure virtual-time/counter numbers, so the gate
// compares them byte-for-byte against the committed baseline.

import (
	"fmt"
	"sort"
	"strings"

	"actdsm/internal/sim"
	"actdsm/internal/transport"
)

// MinTransportSpeedup is the CI gate's floor for the mux-vs-serialized
// throughput ratio. Generation targets >= 1.5; the gate tolerates noisy
// shared runners down to this floor.
const MinTransportSpeedup = 1.3

// transportRuns is the attempts per discipline; the best throughput of
// each wins, shedding scheduler noise.
const transportRuns = 2

// TransportLink is one directed link's deterministic traffic in the
// heterogeneous leg: protocol calls and wire bytes, without the
// wall-clock latency column of dsm.LinkSnapshot.
type TransportLink struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Calls int64 `json:"calls"`
	Bytes int64 `json:"bytes"`
}

// TransportReport is the BENCH_transport.json schema. The Serialized /
// Mux legs and the allocation probe are wall-clock measurements and
// vary between machines; the Hetero* fields are deterministic
// virtual-time results compared exactly.
type TransportReport struct {
	// Serialized is the one-outstanding-call baseline discipline run;
	// Mux is the default pipelined-stream run. Best of transportRuns
	// attempts each, identical workload shape.
	Serialized transport.BenchResult `json:"serialized"`
	Mux        transport.BenchResult `json:"mux"`
	// Speedup is Mux.CallsPerSec / Serialized.CallsPerSec — the number
	// the acceptance criterion and the CI gate check (>= 1.5 at
	// generation time, >= MinTransportSpeedup in CI).
	Speedup float64 `json:"speedup"`
	// SendAllocsPerOp is the steady-state allocation count of one mux
	// round trip with pooled buffers (request frame build + vectored
	// write + reply match); ~0 end to end.
	SendAllocsPerOp float64 `json:"send_allocs_per_op"`
	// SendNSPerOp is the matching wall-clock cost per round trip.
	SendNSPerOp float64 `json:"send_ns_per_op"`

	// Deterministic heterogeneous leg: HeteroApp on HeteroNodes nodes,
	// uniform topology versus a FastSlowTopology, in virtual time.
	HeteroApp   string `json:"hetero_app"`
	HeteroNodes int    `json:"hetero_nodes"`
	// HeteroUniformElapsed / HeteroSlowElapsed are the runs' virtual
	// elapsed times; the slow topology must strictly stretch the run.
	HeteroUniformElapsed sim.Time `json:"hetero_uniform_elapsed"`
	HeteroSlowElapsed    sim.Time `json:"hetero_slow_elapsed"`
	// HeteroLinks is the slow run's per-directed-link traffic, sorted
	// by (from, to).
	HeteroLinks []TransportLink `json:"hetero_links"`
}

// transportHetero is the deterministic leg's shape: SOR (nearest-
// neighbor halo exchange — every link carries traffic) on 4 nodes with
// every 2nd node slow (2x compute cost, 4x link cost).
const (
	transportHeteroApp     = "SOR"
	transportHeteroNodes   = 4
	transportHeteroThreads = 8
)

// TransportComparison runs the real-TCP workload under both wire
// disciplines, probes the steady-state send-path allocation count, and
// runs the deterministic heterogeneous leg.
func TransportComparison() (TransportReport, error) {
	rep := TransportReport{}

	runBest := func(serialized bool) (transport.BenchResult, error) {
		var best transport.BenchResult
		for r := 0; r < transportRuns; r++ {
			res, err := transport.RunBench(transport.BenchOptions{
				Options: transport.Options{Serialized: serialized},
			})
			if err != nil {
				return transport.BenchResult{}, err
			}
			if res.CallsPerSec > best.CallsPerSec {
				best = res
			}
		}
		return best, nil
	}
	var err error
	if rep.Serialized, err = runBest(true); err != nil {
		return rep, fmt.Errorf("transport serialized: %w", err)
	}
	if rep.Mux, err = runBest(false); err != nil {
		return rep, fmt.Errorf("transport mux: %w", err)
	}
	if rep.Serialized.CallsPerSec > 0 {
		rep.Speedup = rep.Mux.CallsPerSec / rep.Serialized.CallsPerSec
	}
	if rep.SendAllocsPerOp, rep.SendNSPerOp, err = transport.MeasureCallAllocs(256, 2000, 20000); err != nil {
		return rep, fmt.Errorf("transport alloc probe: %w", err)
	}

	hetero := func(topo *sim.Topology) (*RunResult, error) {
		return Run(RunConfig{
			App:       transportHeteroApp,
			Threads:   transportHeteroThreads,
			Nodes:     transportHeteroNodes,
			TrackIter: -1,
			Verify:    true,
			Topology:  topo,
		})
	}
	uniform, err := hetero(nil)
	if err != nil {
		return rep, fmt.Errorf("transport hetero uniform: %w", err)
	}
	slowTopo := sim.FastSlowTopology(transportHeteroNodes, sim.Costs{}, 2, 2, 4)
	slow, err := hetero(slowTopo)
	if err != nil {
		return rep, fmt.Errorf("transport hetero slow: %w", err)
	}
	rep.HeteroApp, rep.HeteroNodes = transportHeteroApp, transportHeteroNodes
	rep.HeteroUniformElapsed = uniform.Elapsed
	rep.HeteroSlowElapsed = slow.Elapsed
	for _, l := range slow.Stats.Links {
		rep.HeteroLinks = append(rep.HeteroLinks, TransportLink{
			From: l.From, To: l.To, Calls: l.Calls, Bytes: l.Bytes,
		})
	}
	sort.Slice(rep.HeteroLinks, func(i, j int) bool {
		a, b := rep.HeteroLinks[i], rep.HeteroLinks[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return rep, nil
}

// FormatTransportReport renders the comparison for the actbench section.
func FormatTransportReport(r TransportReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s %8s %9s %12s %12s\n",
		"discipline", "nodes", "callers", "calls", "hold", "calls/sec", "elapsed")
	row := func(name string, res transport.BenchResult) {
		fmt.Fprintf(&b, "%-12s %6d %8d %8d %7dus %12.0f %10.1fms\n",
			name, res.Nodes, res.Callers, res.Calls, res.HoldUS,
			res.CallsPerSec, res.ElapsedMS)
	}
	row("serialized", r.Serialized)
	row("mux", r.Mux)
	fmt.Fprintf(&b, "speedup: %.2fx  (gate: >= %.1fx)\n", r.Speedup, MinTransportSpeedup)
	fmt.Fprintf(&b, "mux round trip: %.2f allocs/op, %.0f ns/op (pooled buffers, steady state)\n",
		r.SendAllocsPerOp, r.SendNSPerOp)
	fmt.Fprintf(&b, "hetero %s x%d: uniform %d, fast/slow %d virtual ns (stretch %.2fx)\n",
		r.HeteroApp, r.HeteroNodes,
		int64(r.HeteroUniformElapsed), int64(r.HeteroSlowElapsed),
		float64(r.HeteroSlowElapsed)/float64(r.HeteroUniformElapsed))
	for _, l := range r.HeteroLinks {
		fmt.Fprintf(&b, "  link %d->%d: %d calls, %d bytes\n", l.From, l.To, l.Calls, l.Bytes)
	}
	return b.String()
}

// transportLane is the BENCH_transport.json lane.
var transportLane = Lane{
	Name:  "transport",
	Title: "Transport: mux vs serialized wire discipline (real TCP)",
	Run:   runFixed(TransportComparison, FormatTransportReport),
	Gate:  gate("transport", checkTransport),
}

// checkTransport is the transport gate. The TCP-leg numbers are
// wall-clock timings that differ between machines, so that half of the
// gate checks properties rather than values: the fresh
// mux-over-serialized speedup must not fall below MinTransportSpeedup
// and the steady-state round trip must stay allocation-free (< 0.5
// allocs/op). The heterogeneous leg is deterministic virtual time, so
// it is compared exactly: elapsed times and every per-link call/byte
// count must match the baseline.
func checkTransport(base, cur TransportReport, b *strings.Builder) []string {
	fmt.Fprintf(b, "speedup: baseline %.2fx, current %.2fx (floor %.1fx)\n",
		base.Speedup, cur.Speedup, MinTransportSpeedup)
	fmt.Fprintf(b, "round-trip allocs/op: baseline %.2f, current %.2f (floor 0.5)\n",
		base.SendAllocsPerOp, cur.SendAllocsPerOp)
	fmt.Fprintf(b, "hetero elapsed: baseline %d/%d, current %d/%d (uniform/slow, exact)\n",
		int64(base.HeteroUniformElapsed), int64(base.HeteroSlowElapsed),
		int64(cur.HeteroUniformElapsed), int64(cur.HeteroSlowElapsed))
	var failures []string
	if cur.Speedup < MinTransportSpeedup {
		failures = append(failures, fmt.Sprintf(
			"mux speedup %.2fx below %.1fx floor", cur.Speedup, MinTransportSpeedup))
	}
	if cur.SendAllocsPerOp >= 0.5 {
		failures = append(failures, fmt.Sprintf(
			"mux round trip allocates %.2f/op on the steady-state path, want ~0",
			cur.SendAllocsPerOp))
	}
	if cur.HeteroSlowElapsed <= cur.HeteroUniformElapsed {
		failures = append(failures, fmt.Sprintf(
			"fast/slow topology did not stretch the run: %d <= %d",
			int64(cur.HeteroSlowElapsed), int64(cur.HeteroUniformElapsed)))
	}
	if cur.HeteroUniformElapsed != base.HeteroUniformElapsed ||
		cur.HeteroSlowElapsed != base.HeteroSlowElapsed {
		failures = append(failures, fmt.Sprintf(
			"deterministic hetero elapsed diverged: uniform %d -> %d, slow %d -> %d",
			int64(base.HeteroUniformElapsed), int64(cur.HeteroUniformElapsed),
			int64(base.HeteroSlowElapsed), int64(cur.HeteroSlowElapsed)))
	}
	if diff := transportLinksDiff(base.HeteroLinks, cur.HeteroLinks); diff != "" {
		failures = append(failures, "deterministic per-link traffic diverged: "+diff)
	}
	return failures
}

func transportLinksDiff(a, b []TransportLink) string {
	if len(a) != len(b) {
		return fmt.Sprintf("baseline %d rows, current %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf(
				"link %d->%d: baseline %d calls/%d bytes, current %d calls/%d bytes",
				a[i].From, a[i].To, a[i].Calls, a[i].Bytes, b[i].Calls, b[i].Bytes)
		}
	}
	return ""
}
