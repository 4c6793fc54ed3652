package transport

// Transport benchmark harness: concurrent callers hammering echo
// handlers over real TCP sockets, run once per wire discipline. This is
// a wall-clock benchmark, not a virtual-time experiment: it measures
// what the multiplexed stream actually buys on real connections, which
// is the number the BENCH_transport.json gate pins.
//
// The workload shape is chosen so the disciplines differ by design, not
// by accident: every caller runs on node 0 and targets nodes 1..N-1
// round-robin, so many callers share each (from,to) pair. Under the
// serialized discipline a pair admits one outstanding call, so the
// injected per-request service hold (HoldUS) serializes behind each
// connection; under the mux, calls pipeline and the holds overlap up to
// muxWorkers per connection. The throughput ratio therefore measures
// schedule overlap — stable on single-core CI runners — rather than the
// benchmark host's core count (same device as the hotpath gate's
// ServiceHoldUS).
//
// The harness lives in the transport package (not a _test file) so the
// Go tests (mux_test.go) and the actbench "transport" section
// (internal/experiments/transportbench.go) drive identical workloads.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"actdsm/internal/msg"
)

// BenchOptions configures one RunBench run. The zero value of any field
// selects a default sized for a sub-second run.
type BenchOptions struct {
	// Nodes is the cluster size (default 4; minimum 2). Node 0 hosts
	// the callers; nodes 1..Nodes-1 serve.
	Nodes int
	// Callers is the number of concurrent caller goroutines on node 0
	// (default 16). Caller w targets node 1 + w%(Nodes-1), so callers
	// share pairs and the pipelining difference is visible.
	Callers int
	// Calls is the total number of calls across all callers
	// (default 2000).
	Calls int
	// Payload is the request size in bytes (default 256). The echo
	// reply has the same size.
	Payload int
	// HoldUS is the injected per-request service time in microseconds
	// (default 200): the handler parks for this long before echoing,
	// modeling the page/diff assembly a real node performs per request.
	HoldUS int
	// Options is passed through to NewTCPWithOptions. Serialized
	// selects the one-outstanding-call baseline discipline.
	Options Options
}

func (o BenchOptions) withDefaults() BenchOptions {
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.Callers == 0 {
		o.Callers = 16
	}
	if o.Calls == 0 {
		o.Calls = 2000
	}
	if o.Payload == 0 {
		o.Payload = 256
	}
	if o.HoldUS == 0 {
		o.HoldUS = 200
	}
	return o
}

// BenchResult is one RunBench measurement.
type BenchResult struct {
	// Serialized records which wire discipline ran.
	Serialized bool `json:"serialized"`
	// Nodes, Callers, Calls, and PayloadBytes echo the workload shape.
	Nodes        int `json:"nodes"`
	Callers      int `json:"callers"`
	Calls        int `json:"calls"`
	PayloadBytes int `json:"payload_bytes"`
	// HoldUS is the injected per-request service time.
	HoldUS int `json:"hold_us"`
	// ElapsedMS is the wall-clock time of the hammer phase.
	ElapsedMS float64 `json:"elapsed_ms"`
	// CallsPerSec is the aggregate call throughput.
	CallsPerSec float64 `json:"calls_per_sec"`
	// WireSentBytes and WireRecvBytes are the transport's frame-level
	// byte counters for the whole run (both sides of every loopback
	// connection belong to the same TCP instance).
	WireSentBytes int64 `json:"wire_sent_bytes"`
	WireRecvBytes int64 `json:"wire_recv_bytes"`
}

// benchHandlers builds echo handlers that park for hold before
// replying, so the benchmark measures schedule overlap (see the package
// comment) instead of raw loopback latency.
func benchHandlers(n int, hold time.Duration) []Handler {
	hs := make([]Handler, n)
	for i := range hs {
		hs[i] = func(from int, p []byte) ([]byte, error) {
			if hold > 0 {
				time.Sleep(hold)
			}
			return p, nil
		}
	}
	return hs
}

// RunBench runs the concurrent-callers workload once under the
// discipline selected by o.Options.Serialized and reports the aggregate
// throughput. Callers pull call indices from a shared counter, so the
// load stays balanced regardless of scheduling.
func RunBench(o BenchOptions) (BenchResult, error) {
	o = o.withDefaults()
	if o.Nodes < 2 {
		return BenchResult{}, fmt.Errorf("transport: bench needs at least 2 nodes, got %d", o.Nodes)
	}
	hold := time.Duration(o.HoldUS) * time.Microsecond
	tr, err := NewTCPWithOptions(benchHandlers(o.Nodes, hold), o.Options)
	if err != nil {
		return BenchResult{}, err
	}
	defer func() { _ = tr.Close() }()

	payload := make([]byte, o.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm-up primes every (0,to) connection and the buffer pools.
	for to := 1; to < o.Nodes; to++ {
		r, err := tr.Call(0, to, payload)
		if err != nil {
			return BenchResult{}, err
		}
		msg.PutBuf(r)
	}

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	start := time.Now()
	for w := 0; w < o.Callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := 1 + w%(o.Nodes-1)
			for {
				if int(next.Add(1)) > o.Calls {
					return
				}
				r, err := tr.Call(0, to, payload)
				if err != nil {
					errOnce.Do(func() { runErr = err })
					return
				}
				msg.PutBuf(r)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return BenchResult{}, runErr
	}
	sent, recv := tr.WireBytes()
	return BenchResult{
		Serialized:    o.Options.Serialized,
		Nodes:         o.Nodes,
		Callers:       o.Callers,
		Calls:         o.Calls,
		PayloadBytes:  o.Payload,
		HoldUS:        o.HoldUS,
		ElapsedMS:     float64(elapsed.Nanoseconds()) / 1e6,
		CallsPerSec:   float64(o.Calls) / elapsed.Seconds(),
		WireSentBytes: sent,
		WireRecvBytes: recv,
	}, nil
}

// MeasureCallAllocs measures the steady-state allocation count and
// wall-clock cost of one mux round trip: a sequential echo call whose
// reply buffer is recycled, after the pools have converged. This is the
// number behind the "0 allocs/op on the send path" acceptance gate; it
// must be measured without the race detector (instrumentation
// allocates).
func MeasureCallAllocs(payloadBytes, warm, runs int) (allocsPerOp, nsPerOp float64, err error) {
	tr, err := NewTCP(benchHandlers(2, 0))
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = tr.Close() }()
	payload := make([]byte, payloadBytes)
	for i := 0; i < warm; i++ {
		r, err := tr.Call(0, 1, payload)
		if err != nil {
			return 0, 0, err
		}
		msg.PutBuf(r)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < runs; i++ {
		r, err := tr.Call(0, 1, payload)
		if err != nil {
			return 0, 0, err
		}
		msg.PutBuf(r)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(elapsed.Nanoseconds()) / float64(runs), nil
}
