package experiments

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"actdsm/internal/sim"
)

// edit returns a perturbation that decodes a committed report as R,
// applies f, and re-encodes it.
func edit[R any](f func(*R)) func([]byte) ([]byte, error) {
	return func(js []byte) ([]byte, error) {
		var r R
		if err := json.Unmarshal(js, &r); err != nil {
			return nil, err
		}
		f(&r)
		return ReportJSON(r)
	}
}

// grow returns n raised by the fraction p, rounded up.
func grow(n int64, p float64) int64 { return int64(math.Ceil(float64(n) * (1 + p))) }

// laneGateCase perturbs one side of a committed report and names the
// failure the lane's gate must report for it.
type laneGateCase struct {
	name string
	// want is a substring of the gate's error; "" means the gate must
	// accept the perturbed pair.
	want string
	// base and cur perturb the committed report on that side of the
	// gate; nil leaves it as committed.
	base, cur func([]byte) ([]byte, error)
}

// laneGateCases lists, per lane, at least one perturbation for every
// check the lane's gate makes, plus perturbations inside a tolerance
// that it must accept.
var laneGateCases = map[string][]laneGateCase{
	"prefetch": {
		{name: "baseline without rows", want: "baseline has no rows",
			base: edit(func(r *PrefetchReport) { r.Rows = nil })},
		{name: "app missing", want: "Ocean: missing from current report",
			cur: edit(func(r *PrefetchReport) { r.Rows = r.Rows[:1] })},
		{name: "calls +6%", want: "SOR: prefetch-run demand calls",
			cur: edit(func(r *PrefetchReport) { r.Rows[0].PrefetchCalls = grow(r.Rows[0].PrefetchCalls, 0.06) })},
		{name: "calls +4% within tolerance",
			cur: edit(func(r *PrefetchReport) { r.Rows[0].PrefetchCalls = grow(r.Rows[0].PrefetchCalls, 0.04) })},
	},
	"hotpath": {
		{name: "speedup 1.2", want: "sharded speedup 1.20x below 1.3x floor",
			cur: edit(func(r *HotpathReport) { r.Speedup = 1.2 })},
		{name: "encode allocates", want: "encode allocates",
			cur: edit(func(r *HotpathReport) { r.EncodeAllocsPerOp = 1 })},
		{name: "slower baseline machine",
			base: edit(func(r *HotpathReport) { r.Speedup = 1.4 })},
	},
	"managers": {
		{name: "depth over bound", want: "exceeds the 2*ceil(log2 64) = 12 bound",
			cur: edit(func(r *ManagersReport) { r.Tree.EnterDepth = r.DepthBound + 1 })},
		{name: "flat harness drift", want: "flat barrier enter depth",
			cur: edit(func(r *ManagersReport) { r.Flat.EnterDepth = 1 })},
		{name: "depth drift", want: "differ from committed baseline",
			cur: edit(func(r *ManagersReport) { r.Tree.ReleaseDepth-- })},
		{name: "centralized leakage", want: "centralized baseline sends only",
			cur: edit(func(r *ManagersReport) { r.LockCentralized.Node0Share = 0.5 })},
		{name: "lock concentration", want: "concentrates 90% on node 0",
			cur: edit(func(r *ManagersReport) { r.LockSharded.Node0Share = 0.9 })},
	},
	"serving": {
		{name: "baseline without rows", want: "baseline has no rows",
			base: edit(func(r *ServingReport) { r.Rows = nil })},
		{name: "variant missing", want: `variant "mincost" missing`,
			cur: edit(func(r *ServingReport) {
				r.Rows = slices.DeleteFunc(r.Rows, func(row ServingRow) bool { return row.Config == "mincost" })
			})},
		{name: "QPS -10%", want: "mincost throughput regressed",
			cur: edit(func(r *ServingReport) { servingRow(*r, "mincost").QPS *= 0.9 })},
		{name: "QPS -4% within tolerance",
			cur: edit(func(r *ServingReport) { servingRow(*r, "mincost").QPS *= 0.96 })},
		{name: "p99 +10%", want: "mincost p99 regressed",
			cur: edit(func(r *ServingReport) {
				servingRow(*r, "mincost").P99 = sim.Time(grow(int64(servingRow(*r, "mincost").P99), 0.1))
			})},
		{name: "static missing", want: "lacks the static/homemig pair",
			cur: edit(func(r *ServingReport) {
				r.Rows = slices.DeleteFunc(r.Rows, func(row ServingRow) bool { return row.Config == "static" })
			})},
		{name: "homemig p99 >= static", want: "no longer beats static placement on p99",
			cur: edit(func(r *ServingReport) { servingRow(*r, "homemig").P99 = servingRow(*r, "static").P99 })},
		{name: "homemig QPS <= static", want: "no longer beats static placement on throughput",
			cur: edit(func(r *ServingReport) { servingRow(*r, "homemig").QPS = servingRow(*r, "static").QPS })},
	},
	"placement": {
		{name: "baseline without workloads", want: "baseline has no workloads",
			base: edit(func(r *PlacementReport) { r.Workloads = nil })},
		{name: "baseline workload without rows", want: "baseline workload serving has no rows",
			base: edit(func(r *PlacementReport) { r.Workloads[1].Rows = nil })},
		{name: "row missing", want: "ocean/data missing from current report",
			cur: edit(func(r *PlacementReport) {
				r.Workloads[0].Rows = slices.DeleteFunc(r.Workloads[0].Rows, func(row PlacementRow) bool { return row.Config == "data" })
			})},
		{name: "elapsed +10%", want: "serving/static elapsed regressed",
			cur: edit(func(r *PlacementReport) {
				row := placementRow(*r, "serving", "static")
				row.Elapsed = sim.Time(grow(int64(row.Elapsed), 0.1))
			})},
		{name: "elapsed +4% within tolerance",
			cur: edit(func(r *PlacementReport) {
				row := placementRow(*r, "serving", "static")
				row.Elapsed = sim.Time(grow(int64(row.Elapsed), 0.04))
			})},
		{name: "demand calls +10%", want: "ocean/static demand calls regressed",
			cur: edit(func(r *PlacementReport) {
				row := placementRow(*r, "ocean", "static")
				row.DemandCalls = grow(row.DemandCalls, 0.1)
			})},
		{name: "combined beats neither side", want: "combined no longer beats both",
			cur: edit(func(r *PlacementReport) {
				for _, w := range []string{"ocean", "serving"} {
					co, th := placementRow(*r, w, "combined"), placementRow(*r, w, "thread")
					co.DemandCalls, co.P99 = th.DemandCalls, th.P99
				}
			})},
	},
	"failover": {
		{name: "digest divergence", want: "leg digests diverge",
			cur: edit(func(r *FailoverReport) { r.Crash.Digest = "deadbeefdeadbeef" })},
		{name: "clean leg crashed", want: "clean leg reports 1 crashes",
			cur: edit(func(r *FailoverReport) { r.Clean.Crashes = 1 })},
		{name: "missed crash", want: "crash leg reports 0 crashes",
			cur: edit(func(r *FailoverReport) { r.Crash.Crashes = 0 })},
		{name: "no failovers", want: "crash leg reports 1 crashes / 0 failovers",
			cur: edit(func(r *FailoverReport) { r.Crash.Failovers = 0 })},
		{name: "missed rejoin", want: "restart leg reports 0 rejoins",
			cur: edit(func(r *FailoverReport) { r.Restart.Rejoins = 0 })},
		{name: "no recovery fetch", want: "restart leg reports 1 rejoins / 0 recovery fetches",
			cur: edit(func(r *FailoverReport) { r.Restart.RecoveryFetches = 0 })},
		{name: "replication off", want: "shipped no replica deltas",
			cur: edit(func(r *FailoverReport) { r.Clean.ReplicaDeltas = 0 })},
		{name: "call-count drift", want: "call counts",
			cur: edit(func(r *FailoverReport) { r.Crash.Calls += 7 })},
		{name: "baseline digest", want: "final digest feedfacefeedface differs",
			cur: edit(func(r *FailoverReport) {
				r.Clean.Digest, r.Crash.Digest, r.Restart.Digest = "feedfacefeedface", "feedfacefeedface", "feedfacefeedface"
			})},
	},
	"transport": {
		{name: "speedup 1.2", want: "mux speedup 1.20x below 1.3x floor",
			cur: edit(func(r *TransportReport) { r.Speedup = 1.2 })},
		{name: "round trip allocates", want: "mux round trip allocates",
			cur: edit(func(r *TransportReport) { r.SendAllocsPerOp = 1 })},
		{name: "no stretch", want: "did not stretch the run",
			cur: edit(func(r *TransportReport) { r.HeteroSlowElapsed = r.HeteroUniformElapsed })},
		{name: "hetero elapsed drift", want: "deterministic hetero elapsed diverged",
			cur: edit(func(r *TransportReport) { r.HeteroUniformElapsed++ })},
		{name: "link calls +1", want: "link 1->3: baseline 1 calls/4154 bytes, current 2 calls",
			cur: edit(func(r *TransportReport) { r.HeteroLinks[5].Calls++ })},
		{name: "link missing", want: "baseline 12 rows, current 11 rows",
			cur: edit(func(r *TransportReport) { r.HeteroLinks = r.HeteroLinks[1:] })},
		{name: "slower machine, same hetero leg",
			cur: edit(func(r *TransportReport) { r.Speedup, r.SendAllocsPerOp = 1.35, 0.4 })},
	},
}

// TestLaneGates drives every lane's gate over the committed
// BENCH_<lane>.json and perturbed copies of it, without running any
// workload: the committed file passes against itself; an empty report
// and every other lane's committed file are rejected on either side;
// and every check fires on its perturbation.
func TestLaneGates(t *testing.T) {
	committed := map[string][]byte{}
	for _, l := range Lanes {
		js, err := os.ReadFile("../../BENCH_" + l.Name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		committed[l.Name] = js
	}
	for _, l := range Lanes {
		t.Run(l.Name, func(t *testing.T) {
			own := committed[l.Name]
			if out, err := l.Gate(own, own); err != nil {
				t.Fatalf("committed report fails its own gate: %v\n%s", err, out)
			}
			foreign := map[string][]byte{"{}": []byte("{}")}
			for name, js := range committed {
				if name != l.Name {
					foreign["BENCH_"+name+".json"] = js
				}
			}
			for name, js := range foreign {
				if _, err := l.Gate(js, own); err == nil {
					t.Errorf("baseline %s passed", name)
				}
				if _, err := l.Gate(own, js); err == nil {
					t.Errorf("current %s passed", name)
				}
			}
			checkGateCases(t, l, own)
		})
	}
}

// checkGateCases applies every perturbation listed for lane l to the
// report own and checks the lane's gate accepts or rejects each as the
// case says.
func checkGateCases(t *testing.T, l Lane, own []byte) {
	t.Helper()
	cases := laneGateCases[l.Name]
	if len(cases) == 0 {
		t.Fatal("no perturbation cases")
	}
	for _, c := range cases {
		base, cur := own, own
		var err error
		if c.base != nil {
			if base, err = c.base(own); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if c.cur != nil {
			if cur, err = c.cur(own); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		out, err := l.Gate(base, cur)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: gate rejected a report within tolerance: %v\n%s", c.name, err, out)
		case c.want == "":
		case err == nil:
			t.Errorf("%s: gate passed a regressed report\n%s", c.name, out)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: gate error does not mention %q:\n%v", c.name, c.want, err)
		case !strings.HasPrefix(err.Error(), l.Name+" benchmark regression:\n  "):
			t.Errorf("%s: gate error lacks the lane prefix:\n%v", c.name, err)
		}
	}
}
