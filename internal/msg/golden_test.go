package msg

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current codec")

// goldenMessages is sizeCorpus followed by FuzzDecode's seed messages
// (repeated here because a fuzz target's seeds are not reachable from
// other tests).
func goldenMessages() []Message {
	return append(sizeCorpus(),
		&PageRequest{From: 1, Page: 2, Pending: []Notice{{Page: 2, Writer: 0, Interval: 1, Lam: 1}}},
		&PageReply{Page: 2, Data: []byte{1, 2, 3}, AppliedVT: []int32{0, 1}},
		&DiffRequest{From: 0, Page: 1, Intervals: []int32{1, 2}},
		&DiffReply{Page: 1, Diffs: [][]byte{{0, 0, 4, 0, 9, 9, 9, 9}, nil}},
		&BarrierEnter{Node: 1, Episode: 3, Lam: 4},
		&BarrierEnter{Node: 2, Episode: 3, Lam: 5,
			Notices: []Notice{{Page: 0, Writer: 2, Interval: 4, Lam: 5}},
			Hot:     []int32{0, 3, 7}},
		&BarrierEnter{Node: 5, Episode: 3, Lam: 6,
			Entered: []int32{5, 11, 12},
			HotSets: []NodeHot{{Node: 5, Pages: []int32{2}}, {Node: 11, Pages: []int32{}}}},
		&BarrierRelease{Episode: 3, Lam: 4, Notices: []Notice{{Page: 1, Writer: 1, Interval: 1, Lam: 1}}},
		&BarrierRelease{Episode: 4, Lam: 9,
			Notices: []Notice{{Page: 1, Writer: 1, Interval: 2, Lam: 8}},
			Push:    []PushedDiff{{Page: 1, Writer: 1, Interval: 2, Diff: []byte{0, 0, 4, 0, 1, 2, 3, 4}}}},
		&BarrierRelease{Episode: 5, Lam: 10,
			Homes: []PageHome{{Page: 2, Home: 1}},
			Relay: []NodePush{{Node: 3, Push: []PushedDiff{{Page: 2, Writer: 0, Interval: 1, Diff: []byte{0, 0, 4, 0, 9, 9, 9, 9}}}}}},
		&LockPull{Node: 2, Lock: 7, Seen: []int32{1, 0, 4}},
		&LockAcquire{Node: 0, Lock: 7, Seen: []int32{1, 2}},
		&LockAcquire{Node: 3, Lock: 1, Pos: 5, Seen: []int32{0, 0, 2, 1}},
		&LockGrant{Lock: 7, Lam: 2},
		&LockGrant{Lock: 1, Lam: 6, Pos: 8,
			Notices: []Notice{{Page: 2, Writer: 0, Interval: 3, Lam: 6}}},
		&LockRelease{Node: 0, Lock: 7, Lam: 2},
		&LockRelease{Node: 1, Lock: 0, Lam: 9,
			Notices: []Notice{{Page: 5, Writer: 1, Interval: 2, Lam: 9}}},
		&GCCollect{Page: 3},
		&Ack{},
		&SWRead{From: 1, Page: 0},
		&SWWrite{From: 1, Page: 0},
		&SWDowngrade{Page: 0},
		&SWFlush{Page: 0},
		&SWInvalidate{Page: 0},
		&DiffBatchRequest{From: 2, Pages: []PageIntervals{
			{Page: 0, Intervals: []int32{1, 2}},
			{Page: 4, Intervals: []int32{3}},
		}},
		&DiffBatchReply{Pages: []PageDiffs{
			{Page: 0, Diffs: [][]byte{{0, 0, 4, 0, 1, 2, 3, 4}, nil}},
			{Page: 4, Diffs: [][]byte{nil}},
		}},
		&ReplicaDelta{Origin: 1, Seq: 2, Interval: 3, Lam: 4,
			Notices: []Notice{{Page: 1, Writer: 1, Interval: 3, Lam: 4}},
			Diffs:   [][]byte{{0, 0, 4, 0, 9, 9, 9, 9}},
			Known:   []Notice{{Page: 0, Writer: 2, Interval: 1, Lam: 2}}},
		&RejoinRequest{Node: 2},
		&RejoinReply{Interval: 5, Lam: 9, Seen: []int32{2, 0, 1}, Homes: []int32{0, 1, 2}},
	)
}

// TestWireGolden pins the wire format. testdata/wire.golden holds the
// hex encoding of every goldenMessages entry, and testdata/decoded.golden
// the Go syntax (%#v) of decoding it, which records every field's
// nil-versus-empty form. Encode must reproduce each line, decoding must
// reproduce the decoded form, re-encoding the decoded value must return
// the same bytes, and every strict prefix of a line must be rejected.
// Run with -update to rewrite both files after a deliberate format change.
func TestWireGolden(t *testing.T) {
	var wire, decoded []string
	for _, m := range goldenMessages() {
		b := Encode(m)
		d, err := Decode(b)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		wire = append(wire, hex.EncodeToString(b))
		decoded = append(decoded, fmt.Sprintf("%#v", d))
	}
	wirePath := filepath.Join("testdata", "wire.golden")
	decodedPath := filepath.Join("testdata", "decoded.golden")
	if *update {
		writeGolden(t, wirePath, wire)
		writeGolden(t, decodedPath, decoded)
		return
	}
	wantWire, wantDecoded := readGolden(t, wirePath), readGolden(t, decodedPath)
	if len(wantWire) != len(wire) || len(wantDecoded) != len(wire) {
		t.Fatalf("golden files hold %d/%d lines, corpus has %d messages",
			len(wantWire), len(wantDecoded), len(wire))
	}
	for i, line := range wantWire {
		if wire[i] != line {
			t.Errorf("line %d: Encode = %s, golden %s", i+1, wire[i], line)
		}
		b, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		m, err := Decode(b)
		if err != nil {
			t.Errorf("line %d: decode golden: %v", i+1, err)
			continue
		}
		if got := fmt.Sprintf("%#v", m); got != wantDecoded[i] {
			t.Errorf("line %d: decoded\n  %s\nwant\n  %s", i+1, got, wantDecoded[i])
		}
		if re := Encode(m); !bytes.Equal(re, b) {
			t.Errorf("line %d: re-encode = %x, golden %s", i+1, re, line)
		}
		for n := 0; n < len(b); n++ {
			if _, err := Decode(b[:n]); err == nil {
				t.Errorf("line %d: %d-byte prefix decoded without error", i+1, n)
			}
		}
	}
}

func readGolden(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

func writeGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
