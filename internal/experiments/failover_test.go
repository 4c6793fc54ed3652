package experiments

import (
	"strings"
	"testing"
)

// TestFailoverComparisonGate runs the real BENCH_failover.json
// measurement and pushes it through its own gate: the report must pass
// against itself, and the invariants the gate encodes must hold on the
// fresh numbers.
func TestFailoverComparisonGate(t *testing.T) {
	rep, err := FailoverComparison()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean.Digest != rep.Crash.Digest || rep.Clean.Digest != rep.Restart.Digest {
		t.Errorf("leg digests diverge: clean %s, crash %s, restart %s",
			rep.Clean.Digest, rep.Crash.Digest, rep.Restart.Digest)
	}
	if rep.Clean.Crashes != 0 || rep.Clean.Rejoins != 0 {
		t.Errorf("clean leg saw %d crashes / %d rejoins, want none",
			rep.Clean.Crashes, rep.Clean.Rejoins)
	}
	if rep.Crash.Crashes != 1 || rep.Crash.Failovers == 0 {
		t.Errorf("crash leg: crashes=%d failovers=%d, want 1 crash with failovers",
			rep.Crash.Crashes, rep.Crash.Failovers)
	}
	if rep.Restart.Rejoins != 1 || rep.Restart.RecoveryFetches == 0 {
		t.Errorf("restart leg: rejoins=%d recovery fetches=%d, want 1 rejoin with re-fetches",
			rep.Restart.Rejoins, rep.Restart.RecoveryFetches)
	}
	if rep.Clean.ReplicaDeltas == 0 {
		t.Error("clean leg shipped no replica deltas")
	}

	js, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failoverLane.Gate(js, js); err != nil {
		t.Errorf("report fails its own gate: %v", err)
	}
	if out := FormatFailoverReport(rep); !strings.Contains(out, "digests identical") {
		t.Errorf("format output missing the digest verdict:\n%s", out)
	}
}

// TestFailoverComparisonDeterministic re-measures and requires the
// reports to be byte-identical — the property the exact-equality gate
// rests on.
func TestFailoverComparisonDeterministic(t *testing.T) {
	a, err := FailoverComparison()
	if err != nil {
		t.Fatal(err)
	}
	b, err := FailoverComparison()
	if err != nil {
		t.Fatal(err)
	}
	ja, err := ReportJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := ReportJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("two measurements differ:\n%s\nvs\n%s", ja, jb)
	}
}

// TestCompareFailoverReportsRejects checks the gate trips on each
// regression class it claims to catch, perturbing a freshly measured
// report rather than the committed one.
func TestCompareFailoverReportsRejects(t *testing.T) {
	rep, err := FailoverComparison()
	if err != nil {
		t.Fatal(err)
	}
	js, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	checkGateCases(t, failoverLane, js)
}
