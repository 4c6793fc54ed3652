package dsm

import (
	"strings"
	"testing"

	"actdsm/internal/msg"
)

// TestServeRejectsOutOfRangeIndices sends every request kind with one
// out-of-range page, node or writer field to a 2-node, 4-page cluster,
// in-process and over TCP. Each call must fail with an error (before the
// index check, several of these panicked the serving node), and a valid
// call afterwards must still succeed.
func TestServeRejectsOutOfRangeIndices(t *testing.T) {
	const far = 1 << 20
	bad := msg.Notice{Page: 1, Writer: 50, Interval: 1, Lam: 1}
	badPush := []msg.PushedDiff{{Page: far, Writer: 1, Interval: 1, Diff: []byte{}}}
	rows := []struct {
		name string
		m    msg.Message
		want string
	}{
		{"PageRequest page", &msg.PageRequest{From: 1, Page: far}, "page"},
		{"PageRequest from", &msg.PageRequest{From: -1, Page: 0}, "node"},
		{"PageRequest pending writer", &msg.PageRequest{From: 1, Page: 0, Pending: []msg.Notice{bad}}, "writer"},
		{"DiffRequest page", &msg.DiffRequest{From: 1, Page: far, Writer: 0, Intervals: []int32{1}}, "page"},
		{"DiffRequest writer", &msg.DiffRequest{From: 1, Page: 0, Writer: 7}, "writer"},
		{"DiffBatchRequest page", &msg.DiffBatchRequest{From: 1, Pages: []msg.PageIntervals{{Page: -3}}}, "page"},
		{"BarrierEnter node", &msg.BarrierEnter{Node: 9}, "node"},
		{"BarrierEnter hot page", &msg.BarrierEnter{Node: 1, Hot: []int32{far}}, "page"},
		{"BarrierEnter entered", &msg.BarrierEnter{Node: 1, Entered: []int32{1, 5}}, "node"},
		{"BarrierEnter hot set", &msg.BarrierEnter{Node: 1, HotSets: []msg.NodeHot{{Node: 1, Pages: []int32{4}}}}, "page"},
		{"BarrierRelease notice writer", &msg.BarrierRelease{Notices: []msg.Notice{bad}}, "writer"},
		{"BarrierRelease push page", &msg.BarrierRelease{Push: badPush}, "page"},
		{"BarrierRelease home page", &msg.BarrierRelease{Homes: []msg.PageHome{{Page: far, Home: 0}}}, "page"},
		{"BarrierRelease home node", &msg.BarrierRelease{Homes: []msg.PageHome{{Page: 0, Home: 2}}}, "node"},
		{"BarrierRelease relay", &msg.BarrierRelease{Relay: []msg.NodePush{{Node: 1, Push: badPush}}}, "page"},
		{"LockAcquire node", &msg.LockAcquire{Node: -1, Lock: 3}, "node"},
		{"LockRelease notice page", &msg.LockRelease{Node: 1, Lock: 3, Notices: []msg.Notice{{Page: far}}}, "page"},
		{"LockPull holder", &msg.LockPull{Node: 1, Lock: 3, Holder: 2}, "node"},
		{"GCCollect page", &msg.GCCollect{Page: far}, "page"},
		{"ReplicaDelta origin", &msg.ReplicaDelta{Origin: 2, Seq: 1}, "node"},
		{"ReplicaDelta known", &msg.ReplicaDelta{Origin: 1, Seq: 1, Known: []msg.Notice{bad}}, "writer"},
		{"RejoinRequest node", &msg.RejoinRequest{Node: 3}, "node"},
		{"SWRead page", &msg.SWRead{From: 1, Page: far}, "page"},
		{"SWWrite from", &msg.SWWrite{From: 64, Page: 0}, "node"},
		{"SWDowngrade page", &msg.SWDowngrade{Page: -1}, "page"},
		{"SWFlush page", &msg.SWFlush{Page: far}, "page"},
		{"SWInvalidate page", &msg.SWInvalidate{Page: far}, "page"},
	}
	for _, useTCP := range []bool{false, true} {
		name := "local"
		if useTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{Nodes: 2, Pages: 4, UseTCP: useTCP})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			for _, r := range rows {
				_, _, err := c.call(1, 0, r.m)
				if err == nil || !strings.Contains(err.Error(), r.want+" ") ||
					!strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s: err = %v, want a %s-out-of-range error", r.name, err, r.want)
				}
				reply, _, err := c.call(1, 0, &msg.PageRequest{From: 1, Page: 0})
				if err != nil {
					t.Fatalf("%s: valid call afterwards: %v", r.name, err)
				}
				if pr, ok := reply.(*msg.PageReply); !ok || pr.Page != 0 {
					t.Fatalf("%s: valid call afterwards returned %#v", r.name, reply)
				}
			}
		})
	}
}
