// Package msg defines the DSM's wire protocol: the messages exchanged
// between nodes for page fetches, diff fetches, barriers, locks, and diff
// garbage collection, together with a compact binary encoding.
//
// Both transports (in-process and TCP) carry the encoded form, so the byte
// counts the experiments report ("Total Mbytes", "Diff Mbytes" in the
// paper's Table 6) are the real sizes of real messages.
//
// # One layout per message
//
// Each message type states its wire layout once, in a walk method that
// visits its fields in wire order. A codec drives the walk in one of
// three modes: sizing (Size), encoding (Encode, EncodeTo) or decoding
// (Decode), so the size, the encoder and the decoder cannot drift apart.
// testdata/wire.golden pins the resulting bytes. Decoding is strict: it
// bounds every count by the bytes left and rejects unknown kinds,
// truncated bodies and trailing bytes with an error, never a panic.
//
// # Encoding and the hot path
//
// Encode allocates exactly once: a sizing walk computes the wire size
// first, so the output buffer is sized before the first byte is written.
// For the protocol service path, EncodeTo appends to a caller-provided
// buffer and GetBuf/PutBuf expose a sync.Pool of reusable buffers, so
// steady-state encodes perform zero allocations. Decode allocates only
// the message and the slices it owns, and always copies byte payloads
// out of the input buffer, which is what makes recycling encode buffers
// safe: no decoded message aliases a pooled buffer.
package msg
