package perfbench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// metric is one named measurement. Samples is the number of values
// behind a median or percentile (0 for a single reading).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// environment is recorded beside every result.
type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// result is everything one run measured.
type result struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Traced    bool        `json:"traced"`
	Env       environment `json:"env"`
	Passes    int         `json:"passes"`
	PassLog   []passEntry `json:"pass_log"`
	Metrics   []metric    `json:"metrics"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Errors    []string    `json:"errors,omitempty"`
	Kinds     []kindRow   `json:"kinds,omitempty"`
	SpanFile  string      `json:"span_file,omitempty"`
}

func newResult(cfg runConfig, traced bool) *result {
	return &result{
		Workload: cfg.spec.name,
		Seed:     cfg.seed,
		Traced:   traced,
		Env: environment{
			Nproc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
		},
	}
}

// passEntry is one pass's raw wall and CPU figures.
type passEntry struct {
	Traced  bool    `json:"traced"`
	SetupS  float64 `json:"setup_s"`
	SpanS   float64 `json:"span_s"`
	CPUS    float64 `json:"cpu_s"`
	Windows int     `json:"windows"`
	Failed  int64   `json:"failed"`
}

// logPasses counts ps and records their raw figures.
func (r *result) logPasses(ps []pass, traced bool) {
	r.Passes += len(ps)
	for _, p := range ps {
		r.PassLog = append(r.PassLog, passEntry{traced, p.setupS, p.spanS, p.cpuS, p.windows, p.ops.failed})
	}
}

func (r *result) add(name string, v float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

func (r *result) addOps(o ops) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	r.Errors = append(r.Errors, o.errs...)
}

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// emit prints the human-readable report, writes the full result under
// dir (when non-empty), and prints the verdict line carrying exactly
// the wanted metrics.
func (r *result) emit(w io.Writer, want []wantMetric, dir string) error {
	fmt.Fprintf(w, "# workload=%s seed=%d traced=%v passes=%d\n", r.Workload, r.Seed, r.Traced, r.Passes)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", r.Env.Nproc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-36s %16.6g %-8s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	if len(r.Kinds) > 0 {
		fmt.Fprintf(w, "# %-18s %10s %14s %12s %12s %8s\n", "kind", "calls", "bytes", "wall_p50_us", "wall_p99_us", "failed")
		for _, k := range r.Kinds {
			fmt.Fprintf(w, "# %-18s %10d %14d %12.2f %12.2f %8d\n", k.Kind, k.Calls, k.Bytes, k.P50US, k.P99US, k.Failed)
		}
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "# spans: %s\n", r.SpanFile)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "# FAILED:", e)
	}
	if dir != "" {
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, b2i(r.Traced))), r); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.Failed == 0 && len(r.Errors) == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]value{},
	}
	for _, wm := range want {
		m, ok := r.metric(wm.Name)
		if !ok {
			return fmt.Errorf("workload %s does not produce metric %q", r.Workload, wm.Name)
		}
		if m.Unit != wm.Unit {
			return fmt.Errorf("metric %s is in %s, the benchmark definition says %s", wm.Name, m.Unit, wm.Unit)
		}
		line.Metrics[wm.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeJSON writes v to path atomically, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// checkVirtual compares every pass's exact virtual results with the
// first pass's and with the values recorded for this seed by earlier
// runs in the same checkout (recording them on first sight). A mismatch
// is a failed operation.
func checkVirtual(cfg runConfig, vs []virtual) ops {
	var o ops
	for i, v := range vs {
		var err error
		if v != vs[0] {
			err = fmt.Errorf("pass %d: %+v, pass 0: %+v", i, v, vs[0])
		}
		o.check("virtual results repeat within the run", err)
	}
	if cfg.dir == "" || len(vs) == 0 {
		return o
	}
	path := filepath.Join(cfg.dir, "virtual", fmt.Sprintf("%s-seed%d.json", cfg.spec.name, cfg.seed))
	var rec virtual
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := writeJSON(path, vs[0]); err != nil {
			o.check("record virtual results", err)
		}
	case err != nil:
		o.check("read recorded virtual results", err)
	default:
		err = json.Unmarshal(b, &rec)
		if err == nil && rec != vs[0] {
			err = fmt.Errorf("got %+v, recorded %+v", vs[0], rec)
		}
		o.check("virtual results match the record for this seed", err)
	}
	return o
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6
}

// commit names the source the binary was built from: the VCS revision
// when the build recorded one, otherwise a hash of the module's Go
// sources and go.mod files under the repository root.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// perPass maps each pass through f.
func perPass(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// untracedRun measures the end-to-end metrics through the facade.
func untracedRun(cfg runConfig) (*result, error) {
	s := cfg.spec
	res := newResult(cfg, false)
	ps := passes(cfg.budget, func() pass { return s.facadePass(cfg.seed, s.nodes) })
	res.logPasses(ps, false)
	var vs []virtual
	for _, p := range ps {
		res.addOps(p.ops)
		vs = append(vs, p.virt)
	}
	if res.Failed == 0 {
		res.addOps(checkVirtual(cfg, vs))
	}
	// A failed pass has no trustworthy measurements; the verdict
	// reports the failure, the metrics what the other passes measured.
	res.endToEnd(s, succeeded(ps))
	return res, nil
}

// endToEnd adds the end-to-end metrics of a set of passes.
func (r *result) endToEnd(s spec, ps []pass) {
	n := len(ps)
	r.add("setup_s", median(perPass(ps, func(p pass) float64 { return p.setupS })), "s", n)
	r.add("iter_per_s", median(perPass(ps, func(p pass) float64 { return float64(p.windows) / p.spanS })), "1/s", n)
	if s.serving() {
		r.add("req_per_s", median(perPass(ps, func(p pass) float64 { return float64(p.virt.Requests) / p.spanS })), "1/s", n)
	}
	r.add("cpu_s", median(perPass(ps, func(p pass) float64 { return p.cpuS })), "s", n)
	r.add("alloc_mb", median(perPass(ps, func(p pass) float64 { return p.allocB / 1e6 })), "MB", n)
	r.add("rss_peak_mb", rssPeakMB(), "MB", 0)
	var v virtual
	if n > 0 {
		v = ps[0].virt
	}
	r.add("sim_s", float64(v.SimNS)/1e9, "s", 0)
	r.add("remote_misses", float64(v.RemoteMisses), "count", 0)
	r.add("messages", float64(v.Messages), "count", 0)
	r.add("wire_mb", float64(v.WireBytes)/1e6, "MB", 0)
	if s.serving() {
		req := int(v.Requests)
		r.add("qps_virtual", v.QPS, "1/s", req)
		r.add("p50_virtual_us", float64(v.P50NS)/1e3, "us", req)
		r.add("p99_virtual_us", float64(v.P99NS)/1e3, "us", req)
		r.add("p999_virtual_us", float64(v.P999NS)/1e3, "us", req)
		// The samples strictly beyond the p999 index: at least ten for
		// the percentile to be reported as resolved.
		r.add("p999_virtual_beyond", float64(req-1-int(0.999*float64(req))), "count", 0)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	r.add("ops_failed_frac", frac, "ratio", int(r.Attempted))
}
