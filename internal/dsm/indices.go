package dsm

import (
	"fmt"

	"actdsm/internal/msg"
)

// checkIndices rejects a request carrying a page, node or writer index
// outside the cluster. node.serve runs it before dispatch, so a malformed
// frame fails its call with an error instead of panicking the serving
// node on a table lookup (over TCP that panic would kill the process).
// Lock ids need no check: every lock table is a map, and lockManager
// reduces any id modulo the shard count.
func (c *Cluster) checkIndices(m msg.Message) error {
	v := indexCheck{numPages: c.cfg.Pages, numNodes: c.cfg.Nodes}
	switch r := m.(type) {
	case *msg.PageRequest:
		v.node(r.From)
		v.page(r.Page)
		v.notices(r.Pending)
	case *msg.DiffRequest:
		v.node(r.From)
		v.page(r.Page)
		v.writer(r.Writer)
	case *msg.DiffBatchRequest:
		v.node(r.From)
		v.writer(r.Writer)
		for _, pi := range r.Pages {
			v.page(pi.Page)
		}
	case *msg.BarrierEnter:
		v.node(r.Node)
		v.notices(r.Notices)
		v.pages(r.Hot)
		for _, id := range r.Entered {
			v.node(id)
		}
		for _, hs := range r.HotSets {
			v.node(hs.Node)
			v.pages(hs.Pages)
		}
	case *msg.BarrierRelease:
		v.notices(r.Notices)
		v.pushes(r.Push)
		for _, ph := range r.Homes {
			v.page(ph.Page)
			v.node(ph.Home)
		}
		for _, np := range r.Relay {
			v.node(np.Node)
			v.pushes(np.Push)
		}
	case *msg.LockAcquire:
		v.node(r.Node)
	case *msg.LockRelease:
		v.node(r.Node)
		v.notices(r.Notices)
	case *msg.LockPull:
		v.node(r.Node)
		v.node(r.Holder)
	case *msg.GCCollect:
		v.page(r.Page)
	case *msg.ReplicaDelta:
		v.node(r.Origin)
		v.notices(r.Notices)
		v.notices(r.Known)
	case *msg.RejoinRequest:
		v.node(r.Node)
	case *msg.SWRead:
		v.node(r.From)
		v.page(r.Page)
	case *msg.SWWrite:
		v.node(r.From)
		v.page(r.Page)
	case *msg.SWDowngrade:
		v.page(r.Page)
	case *msg.SWFlush:
		v.page(r.Page)
	case *msg.SWInvalidate:
		v.page(r.Page)
	}
	return v.err
}

// indexCheck keeps the first out-of-range index it is shown.
type indexCheck struct {
	numPages, numNodes int
	err                error
}

func (v *indexCheck) in(what string, x int32, n int) {
	if v.err == nil && (x < 0 || int(x) >= n) {
		v.err = fmt.Errorf("%s %d out of range [0,%d)", what, x, n)
	}
}

func (v *indexCheck) page(p int32) { v.in("page", p, v.numPages) }

func (v *indexCheck) node(id int32) { v.in("node", id, v.numNodes) }

func (v *indexCheck) writer(id int32) { v.in("writer", id, v.numNodes) }

func (v *indexCheck) pages(ps []int32) {
	for _, p := range ps {
		v.page(p)
	}
}

func (v *indexCheck) notices(ns []msg.Notice) {
	for _, nt := range ns {
		v.page(nt.Page)
		v.writer(nt.Writer)
	}
}

func (v *indexCheck) pushes(ps []msg.PushedDiff) {
	for _, pd := range ps {
		v.page(pd.Page)
		v.writer(pd.Writer)
	}
}
