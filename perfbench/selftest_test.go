package perfbench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// The self-test runs every workload at test scale, one pass per half,
// and checks the benchmark's own contract: every metric BENCHMARK.json
// names is emitted with its unit, the exact virtual results repeat for a
// seed and change with the serving seed, and the CPU profile's buckets
// add up to its total.

const definition = "../BENCHMARK.json"

func tinyRun(t *testing.T, name string, seed uint64, traced bool) *result {
	t.Helper()
	cfg := runConfig{spec: specs()[name].tiny(), seed: seed, budget: 1, dir: t.TempDir()}
	run := untracedRun
	if traced {
		run = tracedRun
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Failed != 0 || len(res.Errors) != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Errors)
	}
	return res
}

// verdict emits res and decodes its last output line.
func verdict(t *testing.T, res *result, traced bool) map[string]json.RawMessage {
	t.Helper()
	want, err := loadMetrics(definition, traced)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.emit(&out, want, ""); err != nil {
		t.Fatalf("%s: %v", res.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", res.Workload, err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("%s: verdict line lacks %q", res.Workload, k)
		}
	}
	if len(line) != 4 {
		t.Errorf("%s: verdict line has %d keys, want 4", res.Workload, len(line))
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", res.Workload, len(metrics), len(want))
	}
	for _, w := range want {
		if m, ok := metrics[w.Name]; !ok || m.Unit != w.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", res.Workload, w.Name, m, w.Unit)
		}
	}
	return line
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, name, 1, traced)
			line := verdict(t, res, traced)
			if string(line["correct"]) != "true" {
				t.Errorf("%s traced=%v: correct = %s", name, traced, line["correct"])
			}
			for _, m := range res.Metrics {
				if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %+v", name, traced, m)
				}
			}
		}
	}
}

func TestProfileBucketsSumToTotal(t *testing.T) {
	res := tinyRun(t, "sor-paper", 1, true)
	total, ok := res.metric("profile.cpu_s")
	if !ok {
		t.Fatal("no profile.cpu_s")
	}
	var sum float64
	for _, b := range cpuBuckets {
		m, ok := res.metric(b.metric)
		if !ok {
			t.Fatalf("no %s", b.metric)
		}
		sum += m.Value
	}
	if math.Abs(sum-total.Value) > 1e-9*math.Max(1, total.Value) {
		t.Errorf("buckets sum to %v s, profile total %v s", sum, total.Value)
	}
}

func TestVirtualResultsRepeatPerSeed(t *testing.T) {
	s := specs()["serve-ctl"].tiny()
	a, b := s.facadePass(1, s.nodes), s.facadePass(1, s.nodes)
	if a.ops.failed != 0 || b.ops.failed != 0 {
		t.Fatalf("failed passes: %v %v", a.ops.errs, b.ops.errs)
	}
	if a.virt != b.virt {
		t.Errorf("seed 1 twice: %+v then %+v", a.virt, b.virt)
	}
	c := s.facadePass(2, s.nodes)
	if c.virt == a.virt {
		t.Errorf("seeds 1 and 2 gave the same virtual results %+v", a.virt)
	}
	// The traced stack must reproduce the facade's virtual results.
	tr := newTracer().pass(s, 1)
	if tr.ops.failed != 0 {
		t.Fatalf("traced pass failed: %v", tr.ops.errs)
	}
	if tr.virt != a.virt {
		t.Errorf("traced %+v, facade %+v", tr.virt, a.virt)
	}

	app := specs()["water-tcp"].tiny()
	x, y := app.facadePass(3, app.nodes), app.facadePass(3, app.nodes)
	if x.ops.failed != 0 || y.ops.failed != 0 {
		t.Fatalf("failed passes: %v %v", x.ops.errs, y.ops.errs)
	}
	if x.virt != y.virt {
		t.Errorf("water-tcp seed 3 twice: %+v then %+v", x.virt, y.virt)
	}
}

func TestRecordedVirtualResultsAreChecked(t *testing.T) {
	cfg := runConfig{spec: specs()["serve-ctl"].tiny(), seed: 5, dir: t.TempDir()}
	v := virtual{SimNS: 1, Requests: 2}
	if o := checkVirtual(cfg, []virtual{v, v}); o.failed != 0 {
		t.Fatalf("first sight: %v", o.errs)
	}
	if o := checkVirtual(cfg, []virtual{v}); o.failed != 0 {
		t.Fatalf("same values: %v", o.errs)
	}
	w := v
	w.SimNS++
	if o := checkVirtual(cfg, []virtual{w}); o.failed != 1 {
		t.Errorf("changed values: %d failed, want 1", o.failed)
	}
	if o := checkVirtual(runConfig{spec: cfg.spec}, []virtual{v, w}); o.failed != 1 {
		t.Errorf("passes disagree: %d failed, want 1", o.failed)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sor-paper", "--seconds", "0"},
		{"--workload", "sor-paper", "--trace", "2"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}

func TestDirtyPageDensity(t *testing.T) {
	for _, frac := range []float64{0, 0.01, 0.5, 1} {
		twin, cur := dirtyPage(frac, 9)
		var dirty int
		for w := 0; w < pageWords; w++ {
			if string(twin[4*w:4*w+4]) != string(cur[4*w:4*w+4]) {
				dirty++
			}
		}
		if want := int(math.Round(frac * pageWords)); dirty != want {
			t.Errorf("frac %v: %d dirty words, want %d", frac, dirty, want)
		}
	}
}
