package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds.
const (
	KindPageRequest Kind = iota + 1
	KindPageReply
	KindDiffRequest
	KindDiffReply
	KindBarrierEnter
	KindBarrierRelease
	KindLockAcquire
	KindLockGrant
	KindLockRelease
	KindGCCollect
	KindAck
	// Single-writer protocol messages (the dsm package's alternative
	// protocol used by the multi-writer-vs-single-writer ablation).
	KindSWRead
	KindSWWrite
	KindSWDowngrade
	KindSWFlush
	KindSWInvalidate
	// Batched diff transfer (demand batching + prefetch): one request
	// fetches the diffs of many (page, interval) pairs from a single
	// writer node in a single round trip.
	KindDiffBatchRequest
	KindDiffBatchReply
	// Distributed lock managers: a requester redirected by a shard
	// manager (LockGrant.Holder) pulls the holder's release-time notice
	// history directly.
	KindLockPull
	// Fault tolerance: a replica delta ships a node's just-closed
	// interval (diffs included) and received-notice history to its ring
	// successor, so the successor can stand in for the node's manager
	// roles after a crash; the rejoin pair restores a restarted node's
	// synchronization state from that successor.
	KindReplicaDelta
	KindRejoinRequest
	KindRejoinReply
)

// KindCount is one past the highest Kind value, sized for arrays indexed
// by Kind (e.g. the DSM's per-message-type call statistics).
const KindCount = int(KindRejoinReply) + 1

// kinds is indexed by Kind: each defined kind's name, and a constructor
// of an empty message of that kind for Decode.
var kinds = [KindCount]struct {
	name  string
	alloc func() Message
}{
	KindPageRequest:      {"PageRequest", func() Message { return new(PageRequest) }},
	KindPageReply:        {"PageReply", func() Message { return new(PageReply) }},
	KindDiffRequest:      {"DiffRequest", func() Message { return new(DiffRequest) }},
	KindDiffReply:        {"DiffReply", func() Message { return new(DiffReply) }},
	KindBarrierEnter:     {"BarrierEnter", func() Message { return new(BarrierEnter) }},
	KindBarrierRelease:   {"BarrierRelease", func() Message { return new(BarrierRelease) }},
	KindLockAcquire:      {"LockAcquire", func() Message { return new(LockAcquire) }},
	KindLockGrant:        {"LockGrant", func() Message { return new(LockGrant) }},
	KindLockRelease:      {"LockRelease", func() Message { return new(LockRelease) }},
	KindGCCollect:        {"GCCollect", func() Message { return new(GCCollect) }},
	KindAck:              {"Ack", func() Message { return new(Ack) }},
	KindSWRead:           {"SWRead", func() Message { return new(SWRead) }},
	KindSWWrite:          {"SWWrite", func() Message { return new(SWWrite) }},
	KindSWDowngrade:      {"SWDowngrade", func() Message { return new(SWDowngrade) }},
	KindSWFlush:          {"SWFlush", func() Message { return new(SWFlush) }},
	KindSWInvalidate:     {"SWInvalidate", func() Message { return new(SWInvalidate) }},
	KindDiffBatchRequest: {"DiffBatchRequest", func() Message { return new(DiffBatchRequest) }},
	KindDiffBatchReply:   {"DiffBatchReply", func() Message { return new(DiffBatchReply) }},
	KindLockPull:         {"LockPull", func() Message { return new(LockPull) }},
	KindReplicaDelta:     {"ReplicaDelta", func() Message { return new(ReplicaDelta) }},
	KindRejoinRequest:    {"RejoinRequest", func() Message { return new(RejoinRequest) }},
	KindRejoinReply:      {"RejoinReply", func() Message { return new(RejoinReply) }},
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k.Valid() {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Valid reports whether k names a defined message kind.
func (k Kind) Valid() bool {
	return int(k) < len(kinds) && kinds[k].alloc != nil
}

// ErrTruncated reports a decode attempt on a short buffer.
var ErrTruncated = errors.New("msg: truncated message")

// Notice is a write notice: writer modified page during its interval.
// Notices are the consistency information of lazy release consistency;
// receiving one invalidates the local copy of the page.
//
// Interval is the writer-local interval index (the key under which the
// writer stores the corresponding diff). Lam is the interval's Lamport
// timestamp: happens-before-ordered intervals have strictly increasing Lam
// values, so applying diffs in (Lam, Writer) order respects causality;
// intervals with equal Lam are concurrent and modify disjoint words.
type Notice struct {
	Page     int32
	Writer   int32
	Interval int32
	Lam      int32
}

func (nt *Notice) walk(c *codec) {
	c.i32(&nt.Page)
	c.i32(&nt.Writer)
	c.i32(&nt.Interval)
	c.i32(&nt.Lam)
}

// noticeWire is the encoded size of one Notice.
const noticeWire = 16

// Message is any DSM protocol message. The interface is sealed: each
// message type states its wire layout once, in walk, which visits the
// fields in wire order through a codec that sizes, encodes or decodes
// them (see codec).
type Message interface {
	Kind() Kind
	walk(c *codec)
}

// PageRequest asks the page manager for a full copy of Page. Pending lists
// the write notices the requester knows are outstanding against the page,
// so the manager can bring its own copy current before replying.
type PageRequest struct {
	From    int32
	Page    int32
	Pending []Notice
}

// Kind implements Message.
func (*PageRequest) Kind() Kind { return KindPageRequest }

func (m *PageRequest) walk(c *codec) {
	c.i32(&m.From)
	c.i32(&m.Page)
	c.notices(&m.Pending)
}

// PageReply carries a full, current page image. AppliedVT is the
// manager's per-writer applied-interval vector for the page after bringing
// it current, so the requester knows which future notices are stale.
type PageReply struct {
	Page      int32
	Data      []byte
	AppliedVT []int32
}

// Kind implements Message.
func (*PageReply) Kind() Kind { return KindPageReply }

func (m *PageReply) walk(c *codec) {
	c.i32(&m.Page)
	c.bytes(&m.Data)
	c.i32s(&m.AppliedVT, always)
}

// DiffRequest asks a writer node for the diffs it created for Page in each
// of Intervals. Writer names the node that authored the diffs; it equals
// the destination in normal operation, but under fault tolerance a
// request for a crashed writer's diffs is routed to that writer's ring
// successor, which serves them from its replica store.
type DiffRequest struct {
	From      int32
	Page      int32
	Writer    int32
	Intervals []int32
}

// Kind implements Message.
func (*DiffRequest) Kind() Kind { return KindDiffRequest }

func (m *DiffRequest) walk(c *codec) {
	c.i32(&m.From)
	c.i32(&m.Page)
	c.i32(&m.Writer)
	c.i32s(&m.Intervals, always)
}

// DiffReply carries the requested diffs, aligned with the request's
// Intervals. A nil entry means the writer no longer stores that diff
// (garbage-collected); the requester must fall back to a full page fetch.
type DiffReply struct {
	Page  int32
	Diffs [][]byte
}

// Kind implements Message.
func (*DiffReply) Kind() Kind { return KindDiffReply }

func (m *DiffReply) walk(c *codec) {
	c.i32(&m.Page)
	c.diffs(&m.Diffs)
}

// BarrierEnter announces a node's arrival at barrier Episode, carrying the
// write notices the node created since the last barrier and the node's
// Lamport clock. Hot (present only when prefetch is enabled) lists the
// pages the node predicts its threads will touch in the coming epoch; the
// manager uses it to piggyback matching diffs on the node's release.
type BarrierEnter struct {
	Node    int32
	Episode int32
	Lam     int32
	Notices []Notice
	Hot     []int32
	// Tree-barrier aggregation (present only when BarrierArity >= 2).
	// An interior node forwards one enter to its parent on behalf of its
	// whole subtree: Entered lists every node folded into the aggregate
	// (including the sender) and HotSets carries each member's hot-page
	// prediction. Flat barriers leave both nil and use Hot.
	Entered []int32
	HotSets []NodeHot
}

// NodeHot is one node's hot-page prediction inside an aggregated
// tree-barrier enter.
type NodeHot struct {
	Node  int32
	Pages []int32
}

// Kind implements Message.
func (*BarrierEnter) Kind() Kind { return KindBarrierEnter }

func (m *BarrierEnter) walk(c *codec) {
	c.i32(&m.Node)
	c.i32(&m.Episode)
	c.i32(&m.Lam)
	c.notices(&m.Notices)
	c.i32s(&m.Hot, nilEmpty)
	c.i32s(&m.Entered, nilEmpty)
	list(c, &m.HotSets, nilEmpty)
}

func (h *NodeHot) walk(c *codec) {
	c.i32(&h.Node)
	c.i32s(&h.Pages, always)
}

// PushedDiff is one diff piggybacked on a barrier release: the diff of
// (Page, Writer, Interval). Its Lamport stamp travels in the release's
// notice for the same triple.
type PushedDiff struct {
	Page     int32
	Writer   int32
	Interval int32
	Diff     []byte
}

func (pd *PushedDiff) walk(c *codec) {
	c.i32(&pd.Page)
	c.i32(&pd.Writer)
	c.i32(&pd.Interval)
	c.bytes(&pd.Diff)
}

// BarrierRelease is the manager's broadcast releasing barrier Episode; it
// carries the union of all nodes' notices for the episode and the maximum
// Lamport clock across entrants. Push (present only when prefetch is
// enabled) carries the diffs matching the destination node's predicted
// hot pages, so the node applies them at release time instead of paying a
// demand round trip per page — the data rides a message that was being
// sent anyway.
type BarrierRelease struct {
	Episode int32
	Lam     int32
	Notices []Notice
	Push    []PushedDiff
	// Homes (present only when HomeMigration is on) lists the page-home
	// reassignments the root computed for the closing epoch; every node
	// applies them at release time, so all home tables move in lockstep
	// while application threads are parked.
	Homes []PageHome
	// Relay (present only when BarrierArity >= 2) carries the pushed
	// diffs for the destination's descendants; the destination forwards
	// each entry down its subtree during the tree fan-out.
	Relay []NodePush
}

// PageHome is one page-home reassignment broadcast in a barrier release.
type PageHome struct {
	Page int32
	Home int32
}

// NodePush is the pushed-diff list destined for one descendant node,
// relayed through the tree-barrier fan-out.
type NodePush struct {
	Node int32
	Push []PushedDiff
}

// Kind implements Message.
func (*BarrierRelease) Kind() Kind { return KindBarrierRelease }

func (m *BarrierRelease) walk(c *codec) {
	c.i32(&m.Episode)
	c.i32(&m.Lam)
	c.notices(&m.Notices)
	c.pushes(&m.Push)
	list(c, &m.Homes, nilEmpty)
	list(c, &m.Relay, nilEmpty)
}

func (ph *PageHome) walk(c *codec) {
	c.i32(&ph.Page)
	c.i32(&ph.Home)
}

func (np *NodePush) walk(c *codec) {
	c.i32(&np.Node)
	c.pushes(&np.Push)
}

// LockAcquire asks a lock's manager for the lock. Seen is the requester's
// vector time (highest interval seen per node), letting the manager filter
// the notices the grant must carry. Pos is the prefix of the manager's
// shared notice log the requester has already received and applied — the
// requester echoes the Pos of the last grant it processed, so the mark
// only advances once delivery is confirmed and a retried acquire (lost
// grant reply) is re-served the identical suffix.
type LockAcquire struct {
	Node int32
	Lock int32
	Pos  int32
	Seen []int32
}

// Kind implements Message.
func (*LockAcquire) Kind() Kind { return KindLockAcquire }

func (m *LockAcquire) walk(c *codec) {
	c.i32(&m.Node)
	c.i32(&m.Lock)
	c.i32(&m.Pos)
	c.i32s(&m.Seen, always)
}

// LockGrant hands over the lock with the consistency information
// (write notices) the acquirer has not yet seen, and the Lamport clock of
// the last release. Pos is the manager-log length the grant brings the
// requester up to; the requester stores it after applying Notices and
// echoes it in its next LockAcquire.
type LockGrant struct {
	Lock int32
	Lam  int32
	Pos  int32
	// Holder is the node that last released the lock this episode, or -1
	// when none (or when grant forwarding is off). Under grant forwarding
	// the shard manager keeps no notice log; a requester redirected to a
	// different holder pulls that node's history with a LockPull.
	Holder  int32
	Notices []Notice
}

// Kind implements Message.
func (*LockGrant) Kind() Kind { return KindLockGrant }

func (m *LockGrant) walk(c *codec) {
	c.i32(&m.Lock)
	c.i32(&m.Lam)
	c.i32(&m.Pos)
	c.i32(&m.Holder)
	c.notices(&m.Notices)
}

// LockRelease returns the lock to its manager with the notices generated
// by the releaser's just-closed interval and the releaser's Lamport clock.
type LockRelease struct {
	Node    int32
	Lock    int32
	Lam     int32
	Notices []Notice
}

// Kind implements Message.
func (*LockRelease) Kind() Kind { return KindLockRelease }

func (m *LockRelease) walk(c *codec) {
	c.i32(&m.Node)
	c.i32(&m.Lock)
	c.i32(&m.Lam)
	c.notices(&m.Notices)
}

// GCCollect tells a node that Page has been consolidated at the page
// manager: drop stored diffs for it and, unless this node is the manager,
// invalidate the local copy (paper §2: garbage collections invalidate
// replicas rather than updating them).
type GCCollect struct {
	Page int32
}

// Kind implements Message.
func (*GCCollect) Kind() Kind { return KindGCCollect }

func (m *GCCollect) walk(c *codec) { c.i32(&m.Page) }

// Ack is the empty success reply.
type Ack struct{}

// Kind implements Message.
func (*Ack) Kind() Kind { return KindAck }

func (*Ack) walk(*codec) {}

// SWRead asks the page's manager for a read copy (single-writer
// protocol). The reply is a PageReply.
type SWRead struct {
	From int32
	Page int32
}

// Kind implements Message.
func (*SWRead) Kind() Kind { return KindSWRead }

func (m *SWRead) walk(c *codec) {
	c.i32(&m.From)
	c.i32(&m.Page)
}

// SWWrite asks the page's manager for ownership (single-writer protocol):
// the manager flushes the current owner, invalidates all replicas, and
// replies with a PageReply.
type SWWrite struct {
	From int32
	Page int32
}

// Kind implements Message.
func (*SWWrite) Kind() Kind { return KindSWWrite }

func (m *SWWrite) walk(c *codec) {
	c.i32(&m.From)
	c.i32(&m.Page)
}

// SWDowngrade tells the page's owner to drop to read-only and return the
// current data (a reader is joining). The reply is a PageReply.
type SWDowngrade struct {
	Page int32
}

// Kind implements Message.
func (*SWDowngrade) Kind() Kind { return KindSWDowngrade }

func (m *SWDowngrade) walk(c *codec) { c.i32(&m.Page) }

// SWFlush tells the page's owner to surrender the page: return the data
// and invalidate the local copy. The reply is a PageReply.
type SWFlush struct {
	Page int32
}

// Kind implements Message.
func (*SWFlush) Kind() Kind { return KindSWFlush }

func (m *SWFlush) walk(c *codec) { c.i32(&m.Page) }

// SWInvalidate drops a replica (a writer is taking ownership).
type SWInvalidate struct {
	Page int32
}

// Kind implements Message.
func (*SWInvalidate) Kind() Kind { return KindSWInvalidate }

func (m *SWInvalidate) walk(c *codec) { c.i32(&m.Page) }

// PageIntervals names one page and the writer-local intervals whose diffs
// are wanted for it.
type PageIntervals struct {
	Page      int32
	Intervals []int32
}

func (pi *PageIntervals) walk(c *codec) {
	c.i32(&pi.Page)
	c.i32s(&pi.Intervals, always)
}

// DiffBatchRequest asks a single writer node for the diffs of many
// (page, interval) pairs in one round trip. It is semantically exactly a
// sequence of DiffRequests coalesced per destination: a pure read of the
// writer's diff store, so it is idempotent and safe to retry.
type DiffBatchRequest struct {
	From int32
	// Writer names the node that authored the requested diffs (see
	// DiffRequest.Writer).
	Writer int32
	Pages  []PageIntervals
}

// Kind implements Message.
func (*DiffBatchRequest) Kind() Kind { return KindDiffBatchRequest }

func (m *DiffBatchRequest) walk(c *codec) {
	c.i32(&m.From)
	c.i32(&m.Writer)
	list(c, &m.Pages, always)
}

// PageDiffs carries the diffs for one page, aligned with the request's
// Intervals for that page. A nil entry means the writer no longer stores
// that diff (garbage-collected); the requester must fall back to a full
// page fetch for that page.
type PageDiffs struct {
	Page  int32
	Diffs [][]byte
}

func (pd *PageDiffs) walk(c *codec) {
	c.i32(&pd.Page)
	c.diffs(&pd.Diffs)
}

// DiffBatchReply answers a DiffBatchRequest, aligned with the request's
// Pages.
type DiffBatchReply struct {
	Pages []PageDiffs
}

// Kind implements Message.
func (*DiffBatchReply) Kind() Kind { return KindDiffBatchReply }

func (m *DiffBatchReply) walk(c *codec) { list(c, &m.Pages, always) }

// LockPull asks the current holder of Lock for the notice history it
// published at its last release of the lock (grant forwarding). Seen is
// the requester's vector time, filtering notices it already has. The
// reply is a LockGrant. Serving a pull is a pure read of the holder's
// release-time snapshot, so it is idempotent and safe to retry.
type LockPull struct {
	Node int32
	Lock int32
	// Holder names the node whose release-time history is wanted; it
	// equals the destination in normal operation, but under fault
	// tolerance a pull for a crashed holder is routed to that holder's
	// ring successor, which serves the replicated history.
	Holder int32
	Seen   []int32
}

// Kind implements Message.
func (*LockPull) Kind() Kind { return KindLockPull }

func (m *LockPull) walk(c *codec) {
	c.i32(&m.Node)
	c.i32(&m.Lock)
	c.i32(&m.Holder)
	c.i32s(&m.Seen, always)
}

// ReplicaDelta replicates one node's interval state to its ring
// successor (fault tolerance). The origin ships a delta after every
// interval close: Notices/Diffs carry the just-closed interval's write
// notices and matching diffs (aligned; nil when the close was empty),
// and Known carries the suffix of the origin's received-notice history
// accumulated since the previous delta, so the successor can answer
// lock pulls for the origin with full transitive causal history. Seq is
// a per-origin sequence number the successor dedups retried deltas on;
// Interval and Lam snapshot the origin's interval counter and Lamport
// clock for use in a later RejoinReply.
type ReplicaDelta struct {
	Origin   int32
	Seq      int32
	Interval int32
	Lam      int32
	Notices  []Notice
	Diffs    [][]byte
	Known    []Notice
}

// Kind implements Message.
func (*ReplicaDelta) Kind() Kind { return KindReplicaDelta }

func (m *ReplicaDelta) walk(c *codec) {
	c.i32(&m.Origin)
	c.i32(&m.Seq)
	c.i32(&m.Interval)
	c.i32(&m.Lam)
	c.notices(&m.Notices)
	c.diffs(&m.Diffs)
	c.notices(&m.Known)
}

// RejoinRequest asks a restarted node's ring successor for the
// synchronization state it must resume with (fault tolerance). The
// reply is a RejoinReply.
type RejoinRequest struct {
	Node int32
}

// Kind implements Message.
func (*RejoinRequest) Kind() Kind { return KindRejoinRequest }

func (m *RejoinRequest) walk(c *codec) { c.i32(&m.Node) }

// RejoinReply restores a rejoining node's synchronization state:
// Interval and Lam resume its interval counter and Lamport clock past
// everything it published before crashing, Seen is the successor's
// notice high-water vector (so stale notices keep deduplicating), and
// Homes is the current page-home table (so a node that missed home
// migrations while down rejoins with the cluster-wide view).
type RejoinReply struct {
	Interval int32
	Lam      int32
	Seen     []int32
	Homes    []int32
}

// Kind implements Message.
func (*RejoinReply) Kind() Kind { return KindRejoinReply }

func (m *RejoinReply) walk(c *codec) {
	c.i32(&m.Interval)
	c.i32(&m.Lam)
	c.i32s(&m.Seen, always)
	c.i32s(&m.Homes, always)
}

// Encode serializes m (kind byte + body) into a freshly allocated,
// exactly-sized buffer (a single allocation — Size presizes it).
func Encode(m Message) []byte {
	return EncodeTo(make([]byte, 0, Size(m)), m)
}

// EncodeTo serializes m (kind byte + body), appending to buf, and
// returns the extended slice — the append-style API the service hot
// path uses with pooled buffers (GetBuf/PutBuf) so steady-state
// encodes allocate nothing. buf may be nil.
func EncodeTo(buf []byte, m Message) []byte {
	c := getCodec(encoding, append(buf, byte(m.Kind())))
	m.walk(c)
	out := c.buf
	putCodec(c)
	return out
}

// Size returns the encoded size of m in bytes, computed from the
// message fields by a sizing walk (no trial encode, no allocation).
func Size(m Message) int {
	c := getCodec(sizing, nil)
	m.walk(c)
	n := c.n
	putCodec(c)
	return 1 + n
}

// Decode parses a message produced by Encode. It rejects unknown kinds,
// truncated or inconsistent bodies, and trailing bytes.
func Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	k := Kind(b[0])
	if !k.Valid() {
		return nil, fmt.Errorf("msg: unknown kind %d", b[0])
	}
	m := kinds[k].alloc()
	c := getCodec(decoding, b)
	c.off = 1
	m.walk(c)
	err, left := c.err, len(b)-c.off
	putCodec(c)
	if err != nil {
		return nil, fmt.Errorf("msg: decode kind %d: %w", b[0], err)
	}
	if left != 0 {
		return nil, fmt.Errorf("msg: %d trailing bytes after kind %d", left, b[0])
	}
	return m, nil
}

// bufPool backs GetBuf/PutBuf. Entries are *[]byte headers with live
// backing arrays; capacity starts at 512 and grows to whatever the
// workload re-Puts, so steady state converges on right-sized buffers.
//
// The headers themselves cycle through hdrPool: PutBuf(&b) would box a
// fresh 24-byte slice header per recycle, which is exactly the per-call
// allocation the transport's zero-alloc send path must not make. With
// the two pools a Get/Put cycle moves pointers only.
var bufPool sync.Pool

// hdrPool holds empty *[]byte headers awaiting reuse by PutBuf.
var hdrPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns a pooled, zero-length byte buffer for use with
// EncodeTo. Return it with PutBuf when the encoded bytes are no longer
// referenced (the transports never retain a payload past Call, and
// Decode copies, so "after the Call returns" is the usual point).
func GetBuf() []byte {
	v := bufPool.Get()
	if v == nil {
		return make([]byte, 0, 512)
	}
	h := v.(*[]byte)
	b := *h
	*h = nil
	hdrPool.Put(h)
	return b[:0]
}

// PutBuf recycles a buffer obtained from GetBuf (or any buffer the
// caller owns outright — e.g. a reply buffer a transport allocated and
// will not touch again). The caller must not reference b afterwards.
// Steady state allocates nothing: the slice header recycles through
// hdrPool alongside the bytes.
func PutBuf(b []byte) {
	h := hdrPool.Get().(*[]byte)
	*h = b
	bufPool.Put(h)
}

// codec walks a message's fields in wire order. Every field is
// little-endian int32-based: a scalar is 4 bytes, a slice is a 4-byte
// count followed by its elements, and a byte field is a 4-byte length
// followed by the bytes. The mode selects what a walk does with each
// field: add up its size, append its encoding to buf, or read it from
// buf at off. Decoding keeps the first error and turns every later read
// into a no-op, so walks need no error plumbing.
type codec struct {
	mode codecMode
	n    int    // sizing: bytes counted so far
	buf  []byte // encoding: output; decoding: input
	off  int    // decoding: read offset into buf
	err  error  // decoding: first failure
}

type codecMode uint8

const (
	sizing codecMode = iota
	encoding
	decoding
)

// How a zero count decodes: optional fields (present only when a
// feature is on) decode it as nil, everything else as an empty slice.
const (
	always   = false
	nilEmpty = true
)

// codecPool recycles codecs so EncodeTo, Size and Decode allocate
// nothing of their own: a codec passed to m.walk through the Message
// interface escapes, so a fresh one per call would cost an allocation.
var codecPool = sync.Pool{New: func() any { return new(codec) }}

func getCodec(mode codecMode, buf []byte) *codec {
	c := codecPool.Get().(*codec)
	*c = codec{mode: mode, buf: buf}
	return c
}

func putCodec(c *codec) {
	*c = codec{}
	codecPool.Put(c)
}

// next consumes n input bytes, or records ErrTruncated and returns nil.
func (c *codec) next(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.err = ErrTruncated
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *codec) i32(v *int32) {
	if c.mode == encoding { // the hot path, kept inlinable
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
		return
	}
	c.sizeOrRead32(v)
}

// sizeOrRead32 is i32 off the encode path. It stays out of line so
// that i32 itself fits the inliner's budget.
//
//go:noinline
func (c *codec) sizeOrRead32(v *int32) {
	if c.mode == sizing {
		c.n += 4
	} else if b := c.next(4); b != nil {
		*v = int32(binary.LittleEndian.Uint32(b))
	}
}

// count walks a slice length n and returns the number of elements to
// walk: n itself when sizing or encoding, the decoded count when
// decoding. A decoded count is bounded by the bytes left, so corrupt
// input cannot trigger huge allocations; after an error it is 0.
func (c *codec) count(n int) int {
	v := int32(n)
	c.i32(&v)
	if c.mode != decoding {
		return n
	}
	if c.err != nil {
		return 0
	}
	if left := len(c.buf) - c.off; v < 0 || int(v) > left {
		c.err = fmt.Errorf("msg: bad length %d with %d bytes left", v, left)
		return 0
	}
	return int(v)
}

// elems walks the count of *s and returns the slice whose elements the
// caller walks next: *s itself, which decoding first allocates at the
// decoded count (leaving it nil for a zero count when orNil is set).
func elems[T any](c *codec, s *[]T, orNil bool) []T {
	n := c.count(len(*s))
	if c.mode == decoding && (n > 0 || !orNil) {
		*s = make([]T, n)
	}
	return *s
}

// walker is a pointer to a slice element type with its own walk.
type walker[T any] interface {
	*T
	walk(c *codec)
}

// list walks a counted slice of elements that walk themselves.
func list[T any, P walker[T]](c *codec, s *[]T, orNil bool) {
	es := elems(c, s, orNil)
	for i := range es {
		P(&es[i]).walk(c)
	}
}

// i32s walks a counted []int32.
func (c *codec) i32s(s *[]int32, orNil bool) {
	if c.mode == sizing {
		c.n += 4 + 4*len(*s)
		return
	}
	vs := elems(c, s, orNil)
	for i := range vs {
		c.i32(&vs[i])
	}
}

// bytes walks a length-prefixed byte field. Decoding copies the bytes
// out of the input (a zero length decodes as an empty, non-nil slice),
// so no decoded message aliases the buffer it came from.
func (c *codec) bytes(b *[]byte) {
	n := c.count(len(*b))
	switch c.mode {
	case sizing:
		c.n += n
	case encoding:
		c.buf = append(c.buf, *b...)
	default:
		if src := c.next(n); c.err == nil {
			*b = make([]byte, n)
			copy(*b, src)
		}
	}
}

// bytesOrNil walks a byte field whose nil value travels as length -1.
func (c *codec) bytesOrNil(b *[]byte) {
	switch {
	case c.mode != decoding && *b == nil:
		nilLen := int32(-1)
		c.i32(&nilLen)
	case c.mode == decoding && c.err == nil && len(c.buf)-c.off >= 4 &&
		int32(binary.LittleEndian.Uint32(c.buf[c.off:])) == -1:
		c.off += 4
	default:
		c.bytes(b)
	}
}

// diffs walks a counted [][]byte whose nil entries mark diffs the
// writer no longer stores.
func (c *codec) diffs(s *[][]byte) {
	ds := elems(c, s, always)
	for i := range ds {
		c.bytesOrNil(&ds[i])
	}
}

// pushes walks an optional counted []PushedDiff.
func (c *codec) pushes(s *[]PushedDiff) { list(c, s, nilEmpty) }

// notices walks a counted []Notice. Sizing is O(1), and decoding bounds
// the count by the whole notices the remaining bytes can hold.
func (c *codec) notices(s *[]Notice) {
	if c.mode == sizing {
		c.n += 4 + noticeWire*len(*s)
		return
	}
	n := c.count(len(*s))
	if c.mode == decoding {
		if c.err == nil && n > (len(c.buf)-c.off)/noticeWire {
			c.err = fmt.Errorf("msg: bad notice count %d", n)
		}
		if c.err != nil {
			return
		}
		*s = make([]Notice, n)
	}
	for i := range *s {
		(*s)[i].walk(c)
	}
}
