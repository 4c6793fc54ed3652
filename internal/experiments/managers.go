package experiments

// Decentralized-manager comparison: the BENCH_managers.json generator
// and regression gate. Two legs, both deterministic message-structure
// measurements (no wall clock, so the gate compares exact values):
//
//   - Barrier scaling at 64 nodes: the flat single-manager barrier
//     against the arity-2 tree. The measured critical-path depth of
//     each fan phase must stay within 2*ceil(log2 n) for the tree,
//     versus the flat topology's n-1.
//   - Lock-manager placement on a LockChain workload: with
//     LockShards: 1 every wire-bound lock message lands on node 0; with
//     the sharded default node 0's share must stay at most half.
//
// See DESIGN.md §10 and internal/dsm/managerbench.go.

import (
	"fmt"
	"math/bits"
	"strings"

	"actdsm/internal/dsm"
)

// ManagersReport is the BENCH_managers.json schema. Every number in it
// is deterministic (serialized fan-outs, no faults, no timing), so the
// regression gate checks the committed values exactly in addition to
// the scaling properties.
type ManagersReport struct {
	// Nodes and Arity describe the barrier leg's cluster.
	Nodes int `json:"nodes"`
	Arity int `json:"arity"`
	// Flat is the single-manager baseline episode, Tree the k-ary
	// tree episode on the same cluster size.
	Flat dsm.BarrierShapeResult `json:"flat"`
	Tree dsm.BarrierShapeResult `json:"tree"`
	// DepthBound is 2*ceil(log2 Nodes) — the ceiling the tree's enter
	// and release depths are gated against (one factor of
	// ceil(log2 n) levels, at most Arity serialized messages each for
	// Arity 2).
	DepthBound int `json:"depth_bound"`
	// LockCentralized is the LockShards: 1 run (every lock managed by
	// node 0), LockSharded the default one-shard-per-node run.
	LockCentralized dsm.LockSpreadResult `json:"lock_centralized"`
	LockSharded     dsm.LockSpreadResult `json:"lock_sharded"`
}

// MaxShardedNode0Share is the gate's ceiling for node 0's share of
// wire-bound lock-manager traffic once locks shard across the cluster.
const MaxShardedNode0Share = 0.5

// managersBarrierNodes is the barrier leg's cluster size — the
// acceptance point where the flat barrier's 63-deep fan-in visibly
// dwarfs the tree's bound of 12.
const managersBarrierNodes = 64

// managersBarrierArity is the tree arity under test.
const managersBarrierArity = 2

// ceilLog2 returns ceil(log2 n) for n >= 2.
func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// ManagersComparison measures both legs and assembles the report.
func ManagersComparison() (ManagersReport, error) {
	rep := ManagersReport{
		Nodes:      managersBarrierNodes,
		Arity:      managersBarrierArity,
		DepthBound: 2 * ceilLog2(managersBarrierNodes),
	}
	var err error
	if rep.Flat, err = dsm.BarrierShapeBench(dsm.BarrierShapeOptions{Nodes: managersBarrierNodes}); err != nil {
		return rep, fmt.Errorf("managers flat barrier: %w", err)
	}
	if rep.Tree, err = dsm.BarrierShapeBench(dsm.BarrierShapeOptions{
		Nodes: managersBarrierNodes, Arity: managersBarrierArity,
	}); err != nil {
		return rep, fmt.Errorf("managers tree barrier: %w", err)
	}
	if rep.LockCentralized, err = dsm.LockSpreadBench(dsm.LockSpreadOptions{LockShards: 1}); err != nil {
		return rep, fmt.Errorf("managers centralized locks: %w", err)
	}
	if rep.LockSharded, err = dsm.LockSpreadBench(dsm.LockSpreadOptions{}); err != nil {
		return rep, fmt.Errorf("managers sharded locks: %w", err)
	}
	return rep, nil
}

// FormatManagersReport renders the comparison for the actbench section.
func FormatManagersReport(r ManagersReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "barrier topology, %d nodes:\n", r.Nodes)
	fmt.Fprintf(&b, "%-18s %12s %14s %12s %12s\n",
		"config", "enter-depth", "release-depth", "calls/phase", "max-in")
	row := func(name string, res dsm.BarrierShapeResult) {
		fmt.Fprintf(&b, "%-18s %12d %14d %12d %12d\n",
			name, res.EnterDepth, res.ReleaseDepth, res.EnterCalls, res.MaxInDegree)
	}
	row("flat (manager 0)", r.Flat)
	row(fmt.Sprintf("tree (arity %d)", r.Arity), r.Tree)
	fmt.Fprintf(&b, "tree depth gate: <= %d (2*ceil(log2 %d)); flat reference: %d\n",
		r.DepthBound, r.Nodes, r.Nodes-1)
	fmt.Fprintf(&b, "\nlock-manager traffic, LockChain (%d calls each):\n",
		r.LockSharded.Calls)
	fmt.Fprintf(&b, "%-18s %8s %12s  %s\n", "config", "shards", "node0-share", "per-node")
	lrow := func(name string, res dsm.LockSpreadResult) {
		fmt.Fprintf(&b, "%-18s %8d %11.0f%%  %v\n",
			name, res.Shards, res.Node0Share*100, res.PerNode)
	}
	lrow("centralized", r.LockCentralized)
	lrow("sharded", r.LockSharded)
	fmt.Fprintf(&b, "sharded node0-share gate: <= %.0f%%\n", MaxShardedNode0Share*100)
	return b.String()
}

// managersLane is the BENCH_managers.json lane.
var managersLane = Lane{
	Name:  "managers",
	Title: "Managers: flat vs tree barrier, centralized vs sharded locks",
	Run:   runFixed(ManagersComparison, FormatManagersReport),
	Gate:  gate("managers", checkManagers),
}

// checkManagers is the managers gate. The measurements are
// deterministic, so the gate is strict: the scaling properties must hold
// (tree depths within DepthBound, flat depth exactly n-1, centralized
// lock traffic fully on node 0, sharded node-0 share at most
// MaxShardedNode0Share), and the fresh barrier depths must equal the
// committed ones — a silent topology change must regenerate the
// baseline deliberately.
func checkManagers(base, cur ManagersReport, b *strings.Builder) []string {
	fmt.Fprintf(b, "tree depth: baseline %d/%d, current %d/%d (bound %d)\n",
		base.Tree.EnterDepth, base.Tree.ReleaseDepth,
		cur.Tree.EnterDepth, cur.Tree.ReleaseDepth, cur.DepthBound)
	fmt.Fprintf(b, "lock node0-share: centralized %.0f%% -> sharded %.0f%% (ceiling %.0f%%)\n",
		cur.LockCentralized.Node0Share*100, cur.LockSharded.Node0Share*100,
		MaxShardedNode0Share*100)
	var failures []string
	if cur.Tree.EnterDepth > cur.DepthBound || cur.Tree.ReleaseDepth > cur.DepthBound {
		failures = append(failures, fmt.Sprintf(
			"tree barrier depth %d/%d exceeds the 2*ceil(log2 %d) = %d bound",
			cur.Tree.EnterDepth, cur.Tree.ReleaseDepth, cur.Nodes, cur.DepthBound))
	}
	if cur.Flat.EnterDepth != cur.Nodes-1 {
		failures = append(failures, fmt.Sprintf(
			"flat barrier enter depth %d, want exactly n-1 = %d (harness drift?)",
			cur.Flat.EnterDepth, cur.Nodes-1))
	}
	if cur.Tree.EnterDepth != base.Tree.EnterDepth || cur.Tree.ReleaseDepth != base.Tree.ReleaseDepth {
		failures = append(failures, fmt.Sprintf(
			"tree depths %d/%d differ from committed baseline %d/%d; regenerate BENCH_managers.json if intended",
			cur.Tree.EnterDepth, cur.Tree.ReleaseDepth,
			base.Tree.EnterDepth, base.Tree.ReleaseDepth))
	}
	if cur.LockCentralized.Node0Share < 0.99 {
		failures = append(failures, fmt.Sprintf(
			"centralized baseline sends only %.0f%% of lock traffic to node 0, want all of it (harness drift?)",
			cur.LockCentralized.Node0Share*100))
	}
	if cur.LockSharded.Node0Share > MaxShardedNode0Share {
		failures = append(failures, fmt.Sprintf(
			"sharded lock traffic concentrates %.0f%% on node 0, ceiling %.0f%%",
			cur.LockSharded.Node0Share*100, MaxShardedNode0Share*100))
	}
	return failures
}
