package perfbench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution. A runtime/pprof CPU profile of the measured span is
// folded by package: each sample is charged to the nearest repository
// frame on its stack, so runtime leaves (memmove, memclr, mallocgc,
// syscalls) count for the layer that called them. Samples whose stack
// holds no repository frame (GC workers, the scheduler's own loop) are
// charged to runtime; the benchmark's own instrumentation and repository
// packages without a layer metric go to other.

// Buckets, in output order. The dsm package is split into the diff
// kernel (diff.go: twin comparison, encoding, application) and the rest
// of the protocol.
var cpuBuckets = []struct{ bucket, metric string }{
	{"apps", "apps.cpu_s"},
	{"memlayout", "memlayout.cpu_s"},
	{"vm", "vm.cpu_s"},
	{"dsm.diff", "dsm.diff_cpu_s"},
	{"dsm.protocol", "dsm.protocol_cpu_s"},
	{"msg", "msg.cpu_s"},
	{"transport", "transport.cpu_s"},
	{"threads", "threads.sched_cpu_s"},
	{"core", "core.cpu_s"},
	{"placement", "placement.cpu_s"},
	{"serve", "serve.cpu_s"},
	{"runtime", "runtime.cpu_s"},
	{"other", "other.cpu_s"},
}

// bucketOf classifies one frame; ok is false for a frame outside the
// repository (runtime and standard library).
func bucketOf(function, file string) (bucket string, ok bool) {
	rest, found := strings.CutPrefix(function, "actdsm")
	if !found || (rest != "" && rest[0] != '.' && rest[0] != '/') {
		return "", false
	}
	pkg := function
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "dsm":
		if strings.HasSuffix(file, "/dsm/diff.go") {
			return "dsm.diff", true
		}
		return "dsm.protocol", true
	case "apps", "memlayout", "vm", "msg", "transport", "threads", "core", "placement", "serve":
		return pkg, true
	}
	return "other", true
}

// foldProfile decodes a gzipped CPU profile and adds each sample's CPU
// nanoseconds to its bucket.
func foldProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	if p.sampleTypes < 2 {
		return errors.New("profile: not a CPU profile")
	}
	// Resolve each location's innermost-first frames to a bucket once.
	locBucket := map[uint64]string{}
	for id, lines := range p.locations {
		for _, fid := range lines {
			f := p.functions[fid]
			if b, ok := bucketOf(p.str(f.name), p.str(f.file)); ok {
				locBucket[id] = b
				break
			}
		}
	}
	for _, s := range p.samples {
		b := "runtime"
		for _, loc := range s.locs {
			if lb, ok := locBucket[loc]; ok {
				b = lb
				break
			}
		}
		into[b] += s.values[1]
	}
	return nil
}

// profile is the subset of the pprof profile.proto message the fold
// needs.
type profile struct {
	sampleTypes int
	samples     []profSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]profFunc
	strings     []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

type profFunc struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the protobuf encoding of profile.proto.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]profFunc{}}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s profSample
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, data)
				case 2:
					for _, x := range appendVarints(nil, wt, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var f profFunc
			err := eachField(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = f
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.values) < p.sampleTypes {
			return nil, errors.New("profile: sample with too few values")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields data holds the bytes.
func eachField(b []byte, f func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := f(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value) or packed (a run of varints).
func appendVarints(dst []uint64, wt int, v uint64, data []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
