package experiments

import (
	"strings"
	"testing"
)

// TestServingComparison runs the full serving ablation once and asserts
// the properties the bench gate depends on, so a workload or protocol
// change that breaks the committed BENCH_serving.json invariants fails
// in tier-1 tests, not only in make bench-compare.
func TestServingComparison(t *testing.T) {
	rep, err := ServingComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rep.Rows), rep.Rows)
	}
	cfg := servingBenchConfig()
	wantReqs := int64(cfg.Clients * cfg.RequestsPerWindow * cfg.MeasureWindows)
	for _, row := range rep.Rows {
		if row.Requests != wantReqs {
			t.Errorf("%s measured %d requests, want %d", row.Config, row.Requests, wantReqs)
		}
		if row.QPS <= 0 || row.P50 <= 0 || row.P99 < row.P50 || row.P999 < row.P99 {
			t.Errorf("%s has malformed latency figures: %+v", row.Config, row)
		}
	}
	s, m, h := servingRow(rep, "static"), servingRow(rep, "mincost"), servingRow(rep, "homemig")
	if s == nil || m == nil || h == nil {
		t.Fatalf("missing variant row: %+v", rep.Rows)
	}
	// The ablation's point: correlation-driven co-location cuts remote
	// misses, and home migration converts that into better throughput
	// AND a better tail than static placement.
	if m.RemoteMisses >= s.RemoteMisses {
		t.Errorf("min-cost placement did not reduce misses: %d vs static %d",
			m.RemoteMisses, s.RemoteMisses)
	}
	if h.P99 >= s.P99 {
		t.Errorf("homemig p99 %v not below static %v", h.P99, s.P99)
	}
	if h.QPS <= s.QPS {
		t.Errorf("homemig QPS %.0f not above static %.0f", h.QPS, s.QPS)
	}
	if h.LockForwards == 0 || h.HomeMigrations == 0 {
		t.Errorf("homemig leg exercised no migration machinery: %+v", *h)
	}

	// The gate accepts its own fresh report.
	js, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	summary, err := servingLane.Gate(js, js)
	if err != nil {
		t.Fatalf("self-comparison failed: %v\n%s", err, summary)
	}
	for _, name := range []string{"static", "mincost", "homemig"} {
		if !strings.Contains(summary, name) {
			t.Errorf("comparison summary omits %s:\n%s", name, summary)
		}
	}
}

// TestServingDeterminism asserts a re-run reproduces the report
// byte-for-byte — the property that lets the bench gate compare the
// committed JSON exactly.
func TestServingDeterminism(t *testing.T) {
	a, err := ServingComparison()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServingComparison()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := ReportJSON(a)
	jb, _ := ReportJSON(b)
	if string(ja) != string(jb) {
		t.Fatalf("serving report not deterministic:\n%s\nvs\n%s", ja, jb)
	}
}
