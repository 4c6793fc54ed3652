package experiments

// Hot-path throughput comparison: the BENCH_hotpath.json generator and
// regression gate. It drives the dsm hot-path harness (one node hammered
// by concurrent peers with a 3:1 mix of diff serves and full-page
// serves) twice — ServiceShards: 1, the pre-sharding one-big-mutex
// baseline, and the sharded default — and reports the throughput ratio.
//
// Each serve holds its page's shard lock for a small injected service
// time (HotpathOptions.ServiceHoldUS) modeling the per-request protocol
// work a real node performs under the lock; the ratio therefore measures
// how much of the service schedule the locking scheme lets overlap,
// which is stable across CI runners regardless of core count. The
// zero-allocation claim for the message hot path is measured directly:
// steady-state EncodeTo allocations per message must be ~0.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"actdsm/internal/dsm"
	"actdsm/internal/msg"
)

// HotpathReport is the BENCH_hotpath.json schema. ElapsedMS and
// OpsPerSec are wall-clock measurements and vary between machines; the
// regression gate checks the ratio and the allocation count, not the
// absolute numbers.
type HotpathReport struct {
	Nodes int `json:"nodes"`
	Pages int `json:"pages"`
	Peers int `json:"peers"`
	Ops   int `json:"ops"`
	// ServiceHoldUS is the injected per-serve lock hold (see package
	// comment).
	ServiceHoldUS int `json:"service_hold_us"`
	// Baseline is the ServiceShards: 1 (single exclusive mutex) run;
	// Sharded is the default-shard-count run. Best of Runs attempts
	// each.
	Baseline dsm.HotpathResult `json:"baseline"`
	Sharded  dsm.HotpathResult `json:"sharded"`
	// Speedup is Sharded.OpsPerSec / Baseline.OpsPerSec — the number
	// the acceptance criterion and the CI gate check (>= 1.5 at
	// generation time, >= MinHotpathSpeedup in CI).
	Speedup float64 `json:"speedup"`
	// EncodeAllocsPerOp is the steady-state allocation count of one
	// pooled-buffer message encode (msg.EncodeTo); ~0 on the hot path.
	EncodeAllocsPerOp float64 `json:"encode_allocs_per_op"`
	// EncodeNSPerOp is the matching wall-clock cost per encode.
	EncodeNSPerOp float64 `json:"encode_ns_per_op"`
}

// MinHotpathSpeedup is the CI gate's floor for the sharded-vs-baseline
// throughput ratio. Generation targets >= 1.5; the gate tolerates noisy
// shared runners down to this floor.
const MinHotpathSpeedup = 1.3

// hotpathRuns is the attempts per configuration; the best throughput of
// each wins, shedding scheduler noise.
const hotpathRuns = 2

// HotpathComparison runs the hot-path workload under both locking
// schemes and measures the message-encode hot path.
func HotpathComparison() (HotpathReport, error) {
	o := dsm.HotpathOptions{Ops: 1500, ServiceHoldUS: 10}
	rep := HotpathReport{}

	runBest := func(shards int) (dsm.HotpathResult, error) {
		oo := o
		oo.ServiceShards = shards
		var best dsm.HotpathResult
		for r := 0; r < hotpathRuns; r++ {
			res, err := dsm.HotpathBench(oo)
			if err != nil {
				return dsm.HotpathResult{}, err
			}
			if res.OpsPerSec > best.OpsPerSec {
				best = res
			}
		}
		return best, nil
	}
	var err error
	if rep.Baseline, err = runBest(1); err != nil {
		return rep, fmt.Errorf("hotpath baseline: %w", err)
	}
	if rep.Sharded, err = runBest(0); err != nil {
		return rep, fmt.Errorf("hotpath sharded: %w", err)
	}
	rep.Nodes, rep.Peers, rep.Ops = 4, rep.Sharded.Peers, rep.Sharded.Ops
	rep.Pages = 256
	rep.ServiceHoldUS = o.ServiceHoldUS
	if rep.Baseline.OpsPerSec > 0 {
		rep.Speedup = rep.Sharded.OpsPerSec / rep.Baseline.OpsPerSec
	}
	rep.EncodeAllocsPerOp, rep.EncodeNSPerOp = measureEncode()
	return rep, nil
}

// measureEncode times the steady-state pooled message encode: a
// representative hot-path message appended into a buffer that has
// reached its steady-state capacity. Mallocs are read from runtime
// memstats around the loop.
func measureEncode() (allocsPerOp, nsPerOp float64) {
	m := &msg.DiffRequest{From: 1, Page: 2, Intervals: []int32{4, 5, 6, 7}}
	buf := make([]byte, 0, 256)
	buf = msg.EncodeTo(buf[:0], m) // warm
	const runs = 100000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < runs; i++ {
		buf = msg.EncodeTo(buf[:0], m)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	_ = buf
	return float64(after.Mallocs-before.Mallocs) / runs,
		float64(elapsed.Nanoseconds()) / runs
}

// FormatHotpathReport renders the comparison for the actbench section.
func FormatHotpathReport(r HotpathReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %12s %12s %10s %10s\n",
		"config", "shards", "ops/sec", "elapsed", "shard-cont", "sync-cont")
	row := func(name string, res dsm.HotpathResult) {
		fmt.Fprintf(&b, "%-22s %8d %12.0f %10.1fms %10d %10d\n",
			name, res.Shards, res.OpsPerSec, res.ElapsedMS,
			res.ShardContention, res.SyncContention)
	}
	row("single-mutex baseline", r.Baseline)
	row("sharded", r.Sharded)
	fmt.Fprintf(&b, "speedup: %.2fx  (gate: >= %.1fx)\n", r.Speedup, MinHotpathSpeedup)
	fmt.Fprintf(&b, "msg encode: %.2f allocs/op, %.1f ns/op (pooled buffer, steady state)\n",
		r.EncodeAllocsPerOp, r.EncodeNSPerOp)
	return b.String()
}

// hotpathLane is the BENCH_hotpath.json lane.
var hotpathLane = Lane{
	Name:  "hotpath",
	Title: "Hotpath: sharded vs single-mutex service throughput",
	Run:   runFixed(HotpathComparison, FormatHotpathReport),
	Gate:  gate("hotpath", checkHotpath),
}

// checkHotpath is the hotpath gate. Unlike the prefetch gate
// (deterministic call counts compared against the baseline), the hotpath
// numbers are wall-clock timings that differ between machines, so the
// gate checks properties rather than values: the fresh speedup must not
// fall below MinHotpathSpeedup, and the steady-state encode must stay
// allocation-free (< 0.5 allocs/op). The baseline is reported for
// context.
func checkHotpath(base, cur HotpathReport, b *strings.Builder) []string {
	fmt.Fprintf(b, "speedup: baseline %.2fx, current %.2fx (floor %.1fx)\n",
		base.Speedup, cur.Speedup, MinHotpathSpeedup)
	fmt.Fprintf(b, "encode allocs/op: baseline %.2f, current %.2f (floor 0.5)\n",
		base.EncodeAllocsPerOp, cur.EncodeAllocsPerOp)
	var failures []string
	if cur.Speedup < MinHotpathSpeedup {
		failures = append(failures, fmt.Sprintf(
			"sharded speedup %.2fx below %.1fx floor", cur.Speedup, MinHotpathSpeedup))
	}
	if cur.EncodeAllocsPerOp >= 0.5 {
		failures = append(failures, fmt.Sprintf(
			"encode allocates %.2f/op on the steady-state path, want ~0", cur.EncodeAllocsPerOp))
	}
	return failures
}
