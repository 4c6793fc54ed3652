// Package perfbench is the repository benchmark: it runs one named
// workload under a seed for a fixed wall-clock budget, checks that the
// outputs are correct, and prints every metric with its unit. The last
// line of standard output is one JSON object with the verdict and the
// metrics BENCHMARK.json lists: its end_to_end metrics for an untraced
// run (-trace 0), its per_layer metrics for a traced run (-trace 1).
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package's test binary and runs it with the same arguments:
//
//	bash perfbench/run.sh --workload sor-paper --seed 1 --seconds 30 --trace 0
//
// Everything it writes goes under .bench_build/perfbench: the full
// result of each run, the exact virtual results recorded per seed, and
// the span file of each traced run. Without -workload the binary runs
// the benchmark's self-test.
//
// All of it lives in test files. The repository's determinism rule
// (internal/sim/determinism_test.go) keeps wall-clock reads out of
// non-test code outside an allowlist of measurement sites, and exempts
// test files; this package is measurement only and never feeds a
// protocol decision.
package perfbench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// outDir holds everything a run writes, relative to the repository root.
const outDir = ".bench_build/perfbench"

// TestMain runs the benchmark when the arguments name a workload, and
// the self-test otherwise.
func TestMain(m *testing.M) {
	if !benchmarkArgs(os.Args[1:]) {
		os.Exit(m.Run())
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmarkArgs reports whether args select a benchmark run.
func benchmarkArgs(args []string) bool {
	for _, a := range args {
		if strings.HasPrefix(strings.TrimLeft(a, "-"), "workload") {
			return true
		}
	}
	return false
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measurement budget in wall seconds")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, ok := specs()[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	want, err := loadMetrics("BENCHMARK.json", *traced == 1)
	if err != nil {
		return err
	}
	cfg := runConfig{spec: s, seed: *seed, budget: time.Duration(*seconds) * time.Second, dir: outDir}
	var res *result
	if *traced == 1 {
		res, err = tracedRun(cfg)
	} else {
		res, err = untracedRun(cfg)
	}
	if err != nil {
		return err
	}
	return res.emit(stdout, want, filepath.Join(cfg.dir, "results"))
}

// runConfig is what one invocation measures.
type runConfig struct {
	spec   spec
	seed   uint64
	budget time.Duration
	dir    string // output directory; empty writes nothing
}

func workloadNames() []string {
	var out []string
	for n := range specs() {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// wantMetric is one metric the last output line must carry.
type wantMetric struct{ Name, Unit string }

// loadMetrics reads the metrics the last output line must carry from the
// benchmark definition: its end_to_end list, or per_layer when traced.
func loadMetrics(path string, traced bool) ([]wantMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var def struct {
		EndToEnd []wantMetric `json:"end_to_end"`
		PerLayer []wantMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if traced {
		return def.PerLayer, nil
	}
	return def.EndToEnd, nil
}
