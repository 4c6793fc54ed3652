package transport

// Concurrency suite for the multiplexed wire discipline. Everything
// here is meant to run under -race: pipelined calls from many
// goroutines, deliberately interleaved replies, a connection torn down
// mid-pipeline, chaos faults over the mux, and malformed frames. The
// serialized-discipline analogues live in resilience_test.go.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actdsm/internal/msg"
)

// TestMuxPipelinedManyGoroutines floods shared (from,to) pairs with
// concurrent callers and verifies every reply matches its own request —
// the request-ID matching must never cross-deliver under pipelining.
func TestMuxPipelinedManyGoroutines(t *testing.T) {
	const nodes, callers, perCaller = 4, 32, 40
	tr, err := NewTCP(echoHandlers(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := 1 + w%(nodes-1)
			for i := 0; i < perCaller; i++ {
				req := fmt.Sprintf("w%d-i%d", w, i)
				got, err := tr.Call(0, to, []byte(req))
				if err != nil {
					errs <- err
					return
				}
				want := fmt.Sprintf("n%d<-0:%s", to, req)
				if string(got) != want {
					errs <- fmt.Errorf("cross-matched reply: got %q, want %q", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxInterleavedReplies makes later requests finish first: each
// payload carries its own service delay, and a batch is issued with
// descending delays so the replies come back in reverse send order.
// Every caller must still receive exactly its own echo.
func TestMuxInterleavedReplies(t *testing.T) {
	hs := []Handler{nil, func(from int, p []byte) ([]byte, error) {
		time.Sleep(time.Duration(p[0]) * time.Millisecond)
		return append([]byte(nil), p...), nil
	}}
	hs[0] = hs[1]
	tr, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	const batch = 8
	var wg sync.WaitGroup
	errs := make(chan error, batch)
	start := make(chan struct{})
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// First byte is the delay in ms: earlier i → longer hold.
			req := []byte{byte((batch - i) * 5), byte(i), 0xAB}
			<-start
			// Stagger sends so request i is on the wire before i+1.
			time.Sleep(time.Duration(i) * time.Millisecond)
			got, err := tr.Call(0, 1, req)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, req) {
				errs <- fmt.Errorf("call %d: got % x, want % x", i, got, req)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxReconnectMidPipeline tears the raw socket down while a
// pipeline of calls is in flight. In-flight calls fail with a retryable
// error, WithRetry redials, and no call is lost or cross-matched.
func TestMuxReconnectMidPipeline(t *testing.T) {
	var slow atomic.Bool
	hs := make([]Handler, 2)
	for i := range hs {
		hs[i] = func(from int, p []byte) ([]byte, error) {
			if slow.Load() {
				time.Sleep(2 * time.Millisecond)
			}
			return append([]byte(nil), p...), nil
		}
	}
	base, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	tr := WithRetry(base, Options{MaxAttempts: 6})
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(0, 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	slow.Store(true)

	const callers, perCaller = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				req := []byte(fmt.Sprintf("w%d-i%d", w, i))
				got, err := tr.Call(0, 1, req)
				if err != nil {
					errs <- fmt.Errorf("w%d i%d: %v", w, i, err)
					return
				}
				if !bytes.Equal(got, req) {
					errs <- fmt.Errorf("w%d i%d: got %q", w, i, got)
					return
				}
			}
		}(w)
	}
	// Repeatedly close the live socket out from under the pipeline.
	for k := 0; k < 3; k++ {
		time.Sleep(10 * time.Millisecond)
		base.mu.Lock()
		mc := base.muxes[[2]int{0, 1}]
		base.mu.Unlock()
		if mc != nil {
			_ = mc.conn.Close()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxChaosDropDelay runs seeded drops and delays over the mux
// discipline: every call must still succeed (drops surface as retryable
// injected faults), and every reply must match its request.
func TestMuxChaosDropDelay(t *testing.T) {
	base, err := NewTCP(echoHandlers(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := WithRetry(NewChaos(base, ChaosOptions{
		Seed:            7,
		DropRequestProb: 0.05,
		DropReplyProb:   0.05,
		DelayProb:       0.1,
		Delay:           time.Millisecond,
		MaxConsecutive:  3,
	}), Options{MaxAttempts: 8})
	defer func() { _ = tr.Close() }()
	const callers, perCaller = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := 1 + w%2
			for i := 0; i < perCaller; i++ {
				req := fmt.Sprintf("w%d-i%d", w, i)
				got, err := tr.Call(0, to, []byte(req))
				if err != nil {
					errs <- fmt.Errorf("w%d i%d: %v", w, i, err)
					return
				}
				if want := fmt.Sprintf("n%d<-0:%s", to, req); string(got) != want {
					errs <- fmt.Errorf("w%d i%d: got %q, want %q", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxRejectsMalformedRequest sends raw request frames whose sender
// word is not a node — the shape a frame carrying the old per-frame
// compression bit (1<<31) has — and requires an error reply for each,
// with the stream still serving a valid request afterwards.
func TestMuxRejectsMalformedRequest(t *testing.T) {
	tr, err := NewTCP(echoHandlers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	conn, err := net.Dial("tcp", tr.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(muxPreamble[:]); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(id, from uint32, payload string) (byte, string) {
		t.Helper()
		if _, err := conn.Write(append(appendMuxReqHdr(nil, uint32(len(payload)), id, from), payload...)); err != nil {
			t.Fatal(err)
		}
		var hdr [9]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(hdr[4:8]); got != id {
			t.Fatalf("reply id %d, want %d", got, id)
		}
		body := make([]byte, binary.LittleEndian.Uint32(hdr[0:4]))
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		return hdr[8], string(body)
	}
	for i, from := range []uint32{1 << 31, 1<<31 | 1, 2, 1 << 20} {
		status, body := roundTrip(uint32(i), from, "x")
		if status != tcpErr || !strings.Contains(body, "malformed") {
			t.Fatalf("from %#x: status %d body %q, want a malformed-frame error", from, status, body)
		}
	}
	if status, body := roundTrip(9, 0, "ok"); status != tcpOK || body != "n1<-0:ok" {
		t.Fatalf("valid request after malformed ones: status %d body %q", status, body)
	}
}

// TestMuxRejectsMalformedReply points a client at a fake server that
// answers with a reply status outside the protocol's values (here the
// old compression bit over tcpOK): the call must fail rather than hand
// the body back as a successful reply.
func TestMuxRejectsMalformedReply(t *testing.T) {
	tr, err := NewTCP(echoHandlers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		var pre [4]byte
		var hdr [12]byte
		if _, err := io.ReadFull(conn, pre[:]); err != nil {
			return
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.LittleEndian.Uint32(hdr[0:4]))
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		id := binary.LittleEndian.Uint32(hdr[4:8])
		_, _ = conn.Write(append(appendMuxReplyHdr(nil, uint32(len(body)), id, 0x80|tcpOK), body...))
		_, _ = io.Copy(io.Discard, conn)
	}()
	tr.addrs[1] = ln.Addr().String()
	got, err := tr.Call(0, 1, []byte("payload"))
	if err == nil || !strings.Contains(err.Error(), "malformed reply status") {
		t.Fatalf("Call = %q, %v; want a malformed-reply error", got, err)
	}
}

// TestMuxBenchSmoke exercises the benchmark harness end to end at a
// tiny size under both disciplines, so RunBench itself stays covered by
// the ordinary test run (the full-size run lives behind actbench).
func TestMuxBenchSmoke(t *testing.T) {
	for _, serialized := range []bool{false, true} {
		res, err := RunBench(BenchOptions{
			Nodes: 3, Callers: 4, Calls: 60, Payload: 128, HoldUS: 50,
			Options: Options{Serialized: serialized},
		})
		if err != nil {
			t.Fatalf("serialized=%v: %v", serialized, err)
		}
		if res.CallsPerSec <= 0 || res.WireSentBytes == 0 || res.WireRecvBytes == 0 {
			t.Fatalf("serialized=%v: implausible result %+v", serialized, res)
		}
	}
}

// TestMuxChaosSoak is the nightly chaos-soak leg: sustained pipelined
// load over real TCP sockets with seeded drops and delays, sockets
// repeatedly torn down out from under the pipeline, and a FaultBudget
// cap so the tail of the workload is guaranteed to drain fault-free.
// Every call must succeed and every reply must match its request for
// the whole soak. Gated on ACTDSM_SOAK (a duration; "1" means 30s)
// because minutes of wall clock are nightly material, not per-push CI.
func TestMuxChaosSoak(t *testing.T) {
	env := os.Getenv("ACTDSM_SOAK")
	if env == "" {
		t.Skip("set ACTDSM_SOAK to a duration (e.g. 2m) to run the chaos soak")
	}
	dur := 30 * time.Second
	if d, err := time.ParseDuration(env); err == nil {
		dur = d
	}
	const nodes, callers = 4, 24
	base, err := NewTCP(echoHandlers(nodes))
	if err != nil {
		t.Fatal(err)
	}
	tr := WithRetry(NewChaos(base, ChaosOptions{
		Seed:            20260808,
		DropRequestProb: 0.02,
		DropReplyProb:   0.02,
		DelayProb:       0.05,
		Delay:           time.Millisecond,
		MaxConsecutive:  3,
		FaultBudget:     5000,
	}), Options{MaxAttempts: 10})
	defer func() { _ = tr.Close() }()

	deadline := time.Now().Add(dur)
	var calls atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	big := strings.Repeat("actdsm-soak-", 64) // a multi-segment payload tail
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			to := 1 + w%(nodes-1)
			for i := 0; time.Now().Before(deadline); i++ {
				req := fmt.Sprintf("w%d-i%d-%s", w, i, big)
				got, err := tr.Call(0, to, []byte(req))
				if err != nil {
					errs <- fmt.Errorf("w%d i%d: %v", w, i, err)
					return
				}
				if want := fmt.Sprintf("n%d<-0:%s", to, req); string(got) != want {
					errs <- fmt.Errorf("w%d i%d: cross-matched reply (len %d)", w, i, len(got))
					return
				}
				msg.PutBuf(got)
				calls.Add(1)
			}
		}(w)
	}
	// Reconnect pressure: keep closing live sockets under the pipeline.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				to := 1 + int(calls.Load())%(nodes-1)
				base.mu.Lock()
				mc := base.muxes[[2]int{0, to}]
				base.mu.Unlock()
				if mc != nil {
					_ = mc.conn.Close()
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("soak: %d calls over %v across %d callers", calls.Load(), dur, callers)
}

// TestMuxCallAllocs pins the zero-allocation send path: a steady-state
// echo round trip over the mux must not allocate (gate: < 0.5/op,
// matching the BENCH_transport.json property gate). Skipped under the
// race detector, whose instrumentation allocates.
func TestMuxCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	allocs, ns, err := MeasureCallAllocs(256, 2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mux call: %.3f allocs/op, %.0f ns/op", allocs, ns)
	if allocs >= 0.5 {
		t.Fatalf("steady-state mux call allocates %.3f/op, want ~0", allocs)
	}
}
