package msg

import "testing"

// benchMessages are the shapes the service hot path actually carries:
// a demand diff request, a one-diff reply, a batched reply, and a full
// page reply (4 KiB), exercising both small and large encodes.
func benchMessages() []Message {
	diff := make([]byte, 256)
	page := make([]byte, 4096)
	return []Message{
		&DiffRequest{From: 1, Page: 42, Intervals: []int32{3, 4, 5}},
		&DiffReply{Page: 42, Diffs: [][]byte{diff}},
		&DiffBatchReply{Pages: []PageDiffs{
			{Page: 42, Diffs: [][]byte{diff, diff}},
			{Page: 43, Diffs: [][]byte{diff}},
		}},
		&PageReply{Page: 42, Data: page, AppliedVT: []int32{1, 2, 3, 4}},
	}
}

// BenchmarkEncode measures the allocating Encode path (one exact-size
// allocation per message since Size computes directly).
func BenchmarkEncode(b *testing.B) {
	ms := benchMessages()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(ms[i&3])
	}
}

// BenchmarkEncodeTo measures the pooled hot path: steady-state encodes
// into a reused buffer must be 0 allocs/op (the tentpole claim; also
// pinned by TestEncodeToZeroAlloc).
func BenchmarkEncodeTo(b *testing.B) {
	ms := benchMessages()
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeTo(buf[:0], ms[i&3])
	}
}

// BenchmarkEncodeDecode measures a full round trip — what one protocol
// message costs each endpoint in pure codec work.
func BenchmarkEncodeDecode(b *testing.B) {
	ms := benchMessages()
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeTo(buf[:0], ms[i&3])
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSize pins the Size bugfix: computing a message's wire size
// must not encode it (it used to cost a full throwaway Encode).
func BenchmarkSize(b *testing.B) {
	ms := benchMessages()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Size(ms[i&3])
	}
}

// TestDecodeAllocs pins decode allocations: decoding a benchMessages
// kind allocates the message and the slices it owns, nothing else (no
// per-call decoder state).
func TestDecodeAllocs(t *testing.T) {
	// Message struct + owned slices, per benchMessages entry.
	want := []float64{
		2, // DiffRequest: struct, Intervals
		3, // DiffReply: struct, Diffs, one diff
		7, // DiffBatchReply: struct, Pages, two Diffs slices, three diffs
		3, // PageReply: struct, Data, AppliedVT
	}
	for i, m := range benchMessages() {
		b := Encode(m)
		got := testing.AllocsPerRun(200, func() {
			if _, err := Decode(b); err != nil {
				t.Fatal(err)
			}
		})
		if got != want[i] {
			t.Errorf("Decode(%T) allocs/op = %v, want %v", m, got, want[i])
		}
	}
}
