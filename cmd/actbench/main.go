// Command actbench regenerates the paper's tables and figures.
//
// Usage:
//
//	actbench [-scale test|paper] [-threads N] [-nodes N] [-configs N]
//	         [-seed N] [-apps a,b,c] [-only table2,figure3] [-maps-dir DIR]
//	         [-json FILE] [-baseline FILE]
//
// With no -only flag every experiment runs; -only takes a comma-separated
// list of section names and rejects an unknown one. -scale test (the
// default) finishes in seconds; -scale paper uses the Table 1 inputs and
// can take tens of minutes. Beyond the paper, each benchmark lane
// (experiments.Lanes) measures one extension and gates it against a
// committed BENCH_<lane>.json: with exactly one lane selected, -json
// writes the fresh report to a file and -baseline fails the run when the
// report regresses against a baseline file (the two may name the same
// file). The lanes:
//
//	prefetch   demand vs correlation-driven prefetch + batching (DESIGN.md §7)
//	hotpath    sharded vs single-mutex service throughput (ARCHITECTURE.md §3–§4)
//	managers   flat vs tree barrier, centralized vs sharded locks (DESIGN.md §10)
//	serving    KV serving under static/min-cost/home-migration placement (DESIGN.md §11)
//	placement  static/thread/data/combined controller ablation (DESIGN.md §14)
//	failover   crash recovery vs a fault-free run (DESIGN.md §12)
//	transport  mux vs serialized wire discipline over real TCP (DESIGN.md §13);
//	           the section first prints per-message-type call statistics
//
// The "sor" section runs one observed SOR workload and prints its
// per-epoch time breakdown (DESIGN.md §9). With -trace-out it writes a
// Chrome trace-event / Perfetto JSON timeline (open in ui.perfetto.dev),
// with -metrics-out a Prometheus-style text dump of every protocol
// counter, and with -pprof a CPU profile of the whole actbench run:
//
//	actbench -only sor -trace-out sor.json -metrics-out sor.metrics
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"actdsm"
	"actdsm/internal/check"
	"actdsm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "actbench:", err)
		os.Exit(1)
	}
}

// sections are the -only names besides the benchmark lanes.
var sections = []string{"table1", "table2", "table3", "table4", "table5", "figure2", "figure3", "table6", "ablation", "check", "transport", "sor"}

func run(args []string) error {
	fs := flag.NewFlagSet("actbench", flag.ContinueOnError)
	var (
		scaleFlag = fs.String("scale", "test", "input scale: test or paper")
		threads   = fs.Int("threads", 64, "application threads")
		nodes     = fs.Int("nodes", 8, "cluster nodes")
		configs   = fs.Int("configs", 0, "random configurations for Table 2 (0 = default)")
		seed      = fs.Uint64("seed", 1999, "random seed")
		appsFlag  = fs.String("apps", "", "comma-separated app subset (default: paper set)")
		only      = fs.String("only", "", "comma-separated sections to run (default: all)")
		mapsDir   = fs.String("maps-dir", "", "write correlation maps as PGM files to this directory")
		fig1CSV   = fs.String("figure1-csv", "", "write the Figure 1 scatter (Table 2 data) as CSV to this file")
		jsonOut   = fs.String("json", "", "write the selected benchmark lane's report as JSON to this file")
		baseline  = fs.String("baseline", "", "gate the selected benchmark lane's report against this committed baseline; fail on regression")
		traceOut  = fs.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON timeline of the sor section to this file")
		metricOut = fs.String("metrics-out", "", "write a Prometheus-style metrics dump of the sor section to this file")
		pprofOut  = fs.String("pprof", "", "write a CPU profile of the whole run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	valid := slices.Clone(sections)
	for _, l := range experiments.Lanes {
		if !slices.Contains(valid, l.Name) {
			valid = append(valid, l.Name)
		}
	}
	want := map[string]bool{}
	if *only != "" {
		for _, e := range strings.Split(*only, ",") {
			e = strings.TrimSpace(e)
			if !slices.Contains(valid, e) {
				return fmt.Errorf("unknown -only section %q (valid: %s)", e, strings.Join(valid, ", "))
			}
			want[e] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }
	if *jsonOut != "" || *baseline != "" {
		var lanes []string
		for _, l := range experiments.Lanes {
			if selected(l.Name) {
				lanes = append(lanes, l.Name)
			}
		}
		if len(lanes) != 1 {
			return fmt.Errorf("-json and -baseline need exactly one benchmark lane selected with -only, got %d: %s",
				len(lanes), strings.Join(lanes, ", "))
		}
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	opts := actdsm.ExperimentOptions{
		Threads:       *threads,
		Nodes:         *nodes,
		RandomConfigs: *configs,
		Seed:          *seed,
	}
	switch *scaleFlag {
	case "test":
		opts.Scale = actdsm.ScaleTest
	case "paper":
		opts.Scale = actdsm.ScalePaper
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	if *appsFlag != "" {
		opts.Apps = strings.Split(*appsFlag, ",")
	}

	if selected("table1") {
		if err := section("Table 1: application characteristics", func() (string, error) {
			rows, err := actdsm.Table1(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatTable1(rows), nil
		}); err != nil {
			return err
		}
	}
	if selected("table2") {
		if err := section("Table 2: remote misses as a function of cut costs", func() (string, error) {
			rows, err := actdsm.Table2(opts)
			if err != nil {
				return "", err
			}
			if *fig1CSV != "" {
				if err := os.WriteFile(*fig1CSV, []byte(actdsm.Table2CSV(rows)), 0o644); err != nil {
					return "", err
				}
			}
			return actdsm.FormatTable2(rows), nil
		}); err != nil {
			return err
		}
	}
	if selected("table3") {
		if err := section("Table 3: correlation maps (32/48/64 threads)", func() (string, error) {
			maps, err := actdsm.Table3(opts)
			if err != nil {
				return "", err
			}
			return renderMaps(maps, *mapsDir)
		}); err != nil {
			return err
		}
	}
	if selected("table4") {
		if err := section("Table 4: 64-thread FFT versus input set", func() (string, error) {
			maps, err := actdsm.Table4(opts)
			if err != nil {
				return "", err
			}
			return renderMaps(maps, *mapsDir)
		}); err != nil {
			return err
		}
	}
	if selected("table5") {
		if err := section("Table 5: tracking overhead", func() (string, error) {
			rows, err := actdsm.Table5(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatTable5(rows), nil
		}); err != nil {
			return err
		}
	}
	if selected("figure2") {
		if err := section("Figure 2: passive information gathering", func() (string, error) {
			series, err := actdsm.Figure2(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatFigure2(series), nil
		}); err != nil {
			return err
		}
	}
	if selected("figure3") {
		if err := section("Figure 3: 32-thread FFT free zones", func() (string, error) {
			cfgs, err := actdsm.Figure3(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatFigure3(cfgs), nil
		}); err != nil {
			return err
		}
	}
	if selected("table6") {
		if err := section("Table 6: 8-node performance by heuristic", func() (string, error) {
			rows, err := actdsm.Table6(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatTable6(rows), nil
		}); err != nil {
			return err
		}
	}
	if selected("ablation") {
		if err := section("Ablation: heuristic quality (paper §5.1)", func() (string, error) {
			rows, err := actdsm.AblationHeuristics(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatAblationHeuristics(rows), nil
		}); err != nil {
			return err
		}
		if err := section("Ablation: tracking-cost scaling (paper §4.2)", func() (string, error) {
			rows, err := actdsm.AblationScaling(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatAblationScaling(rows), nil
		}); err != nil {
			return err
		}
		if err := section("Ablation: page-count vs access-density correlation (paper §1)", func() (string, error) {
			rows, err := actdsm.AblationDensity(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatAblationDensity(rows), nil
		}); err != nil {
			return err
		}
		if err := section("Ablation: multi-writer vs single-writer protocol (paper §6)", func() (string, error) {
			rows, err := actdsm.AblationProtocol(opts)
			if err != nil {
				return "", err
			}
			return actdsm.FormatAblationProtocol(rows), nil
		}); err != nil {
			return err
		}
	}
	if selected("check") {
		if err := section("Check: coherence model-checker sweep", func() (string, error) {
			seeds := 50
			if opts.Scale == actdsm.ScalePaper {
				seeds = 1000
			}
			return checkSweep(seeds)
		}); err != nil {
			return err
		}
	}
	if selected("transport") {
		if err := section("Transport: per-message call statistics (SOR)", func() (string, error) {
			return transportStats(*threads, *nodes, opts.Scale)
		}); err != nil {
			return err
		}
	}
	for _, l := range experiments.Lanes {
		if !selected(l.Name) {
			continue
		}
		if err := section(l.Title, func() (string, error) {
			return runLane(l, opts, *jsonOut, *baseline)
		}); err != nil {
			return err
		}
	}
	if selected("sor") {
		if err := section("SOR: observed run, per-epoch time breakdown (DESIGN.md §9)", func() (string, error) {
			return observedSOR(*threads, *nodes, opts.Scale, *traceOut, *metricOut)
		}); err != nil {
			return err
		}
	}
	return nil
}

// runLane measures one benchmark lane, optionally writes its report to
// jsonOut, and gates it against the baseline file. The baseline is read
// before the report is written, so both may name the same committed
// BENCH_<lane>.json.
func runLane(l experiments.Lane, opts experiments.Options, jsonOut, baselinePath string) (string, error) {
	rep, out, err := l.Run(opts)
	if err != nil {
		return "", err
	}
	report, err := experiments.ReportJSON(rep)
	if err != nil {
		return "", err
	}
	var baseline []byte
	if baselinePath != "" {
		if baseline, err = os.ReadFile(baselinePath); err != nil {
			return "", err
		}
	}
	if jsonOut != "" {
		if err := os.WriteFile(jsonOut, report, 0o644); err != nil {
			return "", err
		}
		out += fmt.Sprintf("\n(wrote %s)\n", jsonOut)
	}
	if baselinePath != "" {
		cmp, err := l.Gate(baseline, report)
		out += "\n-- vs baseline " + baselinePath + " --\n" + cmp
		if err != nil {
			fmt.Print(out)
			return "", err
		}
	}
	return out, nil
}

// observedSOR runs one deterministic SOR workload with the observability
// recorder enabled and renders its per-epoch breakdown; traceOut and
// metricsOut optionally receive the Perfetto timeline and the metrics
// dump of the same run.
func observedSOR(threads, nodes int, scale actdsm.Scale, traceOut, metricsOut string) (string, error) {
	app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: threads, Scale: scale})
	if err != nil {
		return "", err
	}
	sys, err := actdsm.NewSystem(app, nodes,
		actdsm.WithObservability(),
		actdsm.WithClusterConfig(actdsm.ClusterConfig{BatchDiffs: true, PrefetchBudget: -1}),
	)
	if err != nil {
		return "", err
	}
	defer func() { _ = sys.Close() }()
	if err := sys.Run(); err != nil {
		return "", err
	}
	rec := sys.Recorder()
	out := rec.Breakdown().String()
	if dropped := rec.Dropped(); dropped > 0 {
		out += fmt.Sprintf("(ring dropped %d events; raise ObsConfig.BufferEvents)\n", dropped)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return "", err
		}
		if err := rec.WriteTrace(f); err != nil {
			_ = f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		out += fmt.Sprintf("(wrote %s — open in ui.perfetto.dev)\n", traceOut)
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return "", err
		}
		if err := rec.WriteMetrics(sys.Cluster().Stats().Snapshot(), f); err != nil {
			_ = f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		out += fmt.Sprintf("(wrote %s)\n", metricsOut)
	}
	return out, nil
}

// checkSweep runs a short coherence model-checker sweep (DESIGN.md §8)
// across every checker scenario: seeded schedules under seeded chaos
// plans with the LRC oracle attached. Any violation is shrunk to a
// minimal repro and fails the section. Use cmd/actcheck for longer
// sweeps and mutation validation.
func checkSweep(seeds int) (string, error) {
	res, err := check.Sweep(check.SweepConfig{Seeds: seeds})
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("%d trials across %d scenarios, %d aborted, %.2fs\n",
		res.Trials, len(check.Scenarios()), res.Aborted, res.Elapsed.Seconds())
	if res.Failure != nil {
		f := check.Shrink(res.Failure)
		return "", fmt.Errorf("coherence violation (minimal repro below)\n%s", f.ReproStanza())
	}
	return out + "clean: no invariant violations\n", nil
}

// transportStats runs one SOR workload over each transport and renders
// the per-message-type call table: counts, wire bytes, retries, and
// latency quantiles. Not part of the paper; it exercises the resilience
// layer (DESIGN.md §6) and shows where protocol time goes.
func transportStats(threads, nodes int, scale actdsm.Scale) (string, error) {
	var b strings.Builder
	for _, useTCP := range []bool{false, true} {
		app, err := actdsm.NewApp("SOR", actdsm.AppConfig{Threads: threads, Scale: scale})
		if err != nil {
			return "", err
		}
		name := "local"
		sysOpts := []actdsm.SystemOption{
			actdsm.WithTransportOptions(actdsm.TransportOptions{MaxAttempts: 3}),
		}
		if useTCP {
			name = "tcp"
			sysOpts = append(sysOpts, actdsm.WithTCP())
		}
		sys, err := actdsm.NewSystem(app, nodes, sysOpts...)
		if err != nil {
			return "", err
		}
		runErr := sys.Run()
		snap := sys.Cluster().Stats().Snapshot()
		_ = sys.Close()
		if runErr != nil {
			return "", fmt.Errorf("%s transport: %w", name, runErr)
		}
		fmt.Fprintf(&b, "-- %s transport --\n%s", name, snap.FormatCalls())
	}
	return b.String(), nil
}

func section(title string, f func() (string, error)) error {
	start := time.Now()
	out, err := f()
	if err != nil {
		return fmt.Errorf("%s: %w", title, err)
	}
	fmt.Printf("== %s  (%.1fs)\n%s\n", title, time.Since(start).Seconds(), out)
	return nil
}

// renderMaps prints map summaries and optionally writes PGM images.
func renderMaps(maps []actdsm.MapResult, dir string) (string, error) {
	var b strings.Builder
	for _, m := range maps {
		fmt.Fprintf(&b, "-- %s, %d threads --\n%s\n", m.App, m.Threads, m.ASCII)
		if dir != "" {
			for ext, data := range map[string]string{
				"pgm": m.Matrix.RenderPGM(),
				"svg": m.Matrix.RenderSVG(6, nil),
			} {
				name := filepath.Join(dir, fmt.Sprintf("%s-%dt.%s", m.App, m.Threads, ext))
				if err := os.WriteFile(name, []byte(data), 0o644); err != nil {
					return "", fmt.Errorf("write %s: %w", name, err)
				}
				fmt.Fprintf(&b, "(wrote %s)\n", name)
			}
		}
	}
	return b.String(), nil
}
