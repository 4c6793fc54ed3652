package experiments

// Crash-recovery comparison: the BENCH_failover.json generator and
// regression gate. Three legs of the same phased lane-write workload on
// a fault-tolerant 4-node cluster, all deterministic (serialized
// fan-outs, imperative kill/restart, no timing):
//
//   - clean: fault tolerance on, nobody dies (the replication-overhead
//     baseline);
//   - crash: the victim dies between the phases and stays dead — the
//     survivors must finish over its ring successor's replicated state;
//   - restart: the victim additionally rejoins mid-run and re-fetches
//     its wiped pages.
//
// The headline invariant is digest equality: all three legs must end
// with byte-identical shared memory. The call counts price the crash:
// failover re-routes, recovery fetches, and replication re-ships push
// the count up while the dead node's ceased participation pulls it
// down, so the net delta can be negative. The gate pins the counts
// exactly — the runs are deterministic, so a drift means the recovery
// protocol changed shape and the baseline must be regenerated
// deliberately.
//
// See DESIGN.md §12 and internal/dsm/failoverbench.go.

import (
	"fmt"
	"strings"

	"actdsm/internal/dsm"
)

// FailoverReport is the BENCH_failover.json schema.
type FailoverReport struct {
	// Nodes, Pages, PreRounds, PostRounds, Victim describe the shared
	// workload shape.
	Nodes      int `json:"nodes"`
	Pages      int `json:"pages"`
	PreRounds  int `json:"pre_rounds"`
	PostRounds int `json:"post_rounds"`
	Victim     int `json:"victim"`
	// Clean, Crash, Restart are the three measured legs.
	Clean   dsm.FailoverBenchResult `json:"clean"`
	Crash   dsm.FailoverBenchResult `json:"crash"`
	Restart dsm.FailoverBenchResult `json:"restart"`
	// ExtraCallsCrash and ExtraCallsRestart are the legs' transport-
	// call excess over the clean leg — the protocol price of the
	// failure (and of the rejoin).
	ExtraCallsCrash   int64 `json:"extra_calls_crash"`
	ExtraCallsRestart int64 `json:"extra_calls_restart"`
}

// failoverOptions is the fixed workload shape all three legs share.
var failoverOptions = dsm.FailoverBenchOptions{
	Nodes:      4,
	Pages:      4,
	PreRounds:  2,
	PostRounds: 3,
	Victim:     2,
}

// FailoverComparison measures the three legs and assembles the report.
func FailoverComparison() (FailoverReport, error) {
	rep := FailoverReport{
		Nodes:      failoverOptions.Nodes,
		Pages:      failoverOptions.Pages,
		PreRounds:  failoverOptions.PreRounds,
		PostRounds: failoverOptions.PostRounds,
		Victim:     failoverOptions.Victim,
	}
	var err error
	o := failoverOptions
	if rep.Clean, err = dsm.FailoverBench(o); err != nil {
		return rep, fmt.Errorf("failover clean leg: %w", err)
	}
	o.Crash = true
	if rep.Crash, err = dsm.FailoverBench(o); err != nil {
		return rep, fmt.Errorf("failover crash leg: %w", err)
	}
	o.Restart = true
	if rep.Restart, err = dsm.FailoverBench(o); err != nil {
		return rep, fmt.Errorf("failover restart leg: %w", err)
	}
	rep.ExtraCallsCrash = rep.Crash.Calls - rep.Clean.Calls
	rep.ExtraCallsRestart = rep.Restart.Calls - rep.Clean.Calls
	return rep, nil
}

// FormatFailoverReport renders the comparison for the actbench section.
func FormatFailoverReport(r FailoverReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash recovery, %d nodes, victim %d (%d+%d rounds):\n",
		r.Nodes, r.Victim, r.PreRounds, r.PostRounds)
	fmt.Fprintf(&b, "%-9s %18s %8s %8s %8s %10s %9s %9s\n",
		"leg", "digest", "calls", "crashes", "rejoins", "failovers", "recfetch", "replicas")
	row := func(name string, l dsm.FailoverBenchResult) {
		fmt.Fprintf(&b, "%-9s %18s %8d %8d %8d %10d %9d %9d\n",
			name, l.Digest, l.Calls, l.Crashes, l.Rejoins, l.Failovers,
			l.RecoveryFetches, l.ReplicaDeltas)
	}
	row("clean", r.Clean)
	row("crash", r.Crash)
	row("restart", r.Restart)
	fmt.Fprintf(&b, "extra calls: crash %+d, restart %+d\n",
		r.ExtraCallsCrash, r.ExtraCallsRestart)
	if r.Clean.Digest == r.Crash.Digest && r.Clean.Digest == r.Restart.Digest {
		fmt.Fprintf(&b, "digests identical: the crash is invisible to the surviving computation\n")
	} else {
		fmt.Fprintf(&b, "DIGEST MISMATCH: crash-run memory diverged from the fault-free run\n")
	}
	return b.String()
}

// failoverLane is the BENCH_failover.json lane.
var failoverLane = Lane{
	Name:  "failover",
	Title: "Failover: crash recovery vs fault-free baseline",
	Run:   runFixed(FailoverComparison, FormatFailoverReport),
	Gate:  gate("failover", checkFailover),
}

// checkFailover is the failover gate. The legs are deterministic, so
// the gate is strict: the three fresh digests must agree with each other
// (the fault-tolerance claim itself), the crash legs must actually
// exercise the machinery (a crash detected, a rejoin completed,
// failovers and recovery fetches performed), and the digests and call
// counts must equal the committed ones — a silent protocol change must
// regenerate the baseline deliberately.
func checkFailover(base, cur FailoverReport, b *strings.Builder) []string {
	fmt.Fprintf(b, "digest: clean %s, crash %s, restart %s\n",
		cur.Clean.Digest, cur.Crash.Digest, cur.Restart.Digest)
	fmt.Fprintf(b, "extra calls: crash %+d (baseline %+d), restart %+d (baseline %+d)\n",
		cur.ExtraCallsCrash, base.ExtraCallsCrash,
		cur.ExtraCallsRestart, base.ExtraCallsRestart)
	var failures []string
	if cur.Clean.Digest != cur.Crash.Digest || cur.Clean.Digest != cur.Restart.Digest {
		failures = append(failures,
			"leg digests diverge: a crashed run no longer reproduces the fault-free memory image")
	}
	if cur.Clean.Crashes != 0 || cur.Clean.Failovers != 0 {
		failures = append(failures, fmt.Sprintf(
			"clean leg reports %d crashes / %d failovers, want none (harness drift?)",
			cur.Clean.Crashes, cur.Clean.Failovers))
	}
	if cur.Crash.Crashes != 1 || cur.Crash.Failovers == 0 {
		failures = append(failures, fmt.Sprintf(
			"crash leg reports %d crashes / %d failovers, want exactly 1 crash and some failovers",
			cur.Crash.Crashes, cur.Crash.Failovers))
	}
	if cur.Restart.Rejoins != 1 || cur.Restart.RecoveryFetches == 0 {
		failures = append(failures, fmt.Sprintf(
			"restart leg reports %d rejoins / %d recovery fetches, want exactly 1 rejoin with re-fetches",
			cur.Restart.Rejoins, cur.Restart.RecoveryFetches))
	}
	if cur.Clean.ReplicaDeltas == 0 {
		failures = append(failures,
			"clean leg shipped no replica deltas: ring replication is not running")
	}
	if cur.Clean.Digest != base.Clean.Digest {
		failures = append(failures, fmt.Sprintf(
			"final digest %s differs from committed %s; regenerate BENCH_failover.json if intended",
			cur.Clean.Digest, base.Clean.Digest))
	}
	if cur.Clean.Calls != base.Clean.Calls ||
		cur.Crash.Calls != base.Crash.Calls ||
		cur.Restart.Calls != base.Restart.Calls {
		failures = append(failures, fmt.Sprintf(
			"call counts %d/%d/%d differ from committed %d/%d/%d; regenerate BENCH_failover.json if intended",
			cur.Clean.Calls, cur.Crash.Calls, cur.Restart.Calls,
			base.Clean.Calls, base.Crash.Calls, base.Restart.Calls))
	}
	return failures
}
