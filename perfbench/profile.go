package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Attribution rules for host.self_share.<layer>. A CPU-profile sample counts
// for the layer of its innermost frame (inlined frames included, so a sample
// inside an inlined helper counts where the helper's code lives):
//
//   - multikernel/internal/<pkg>.* counts for <pkg> when <pkg> is one of the
//     simulator layers below, and for "other" otherwise;
//   - runtime functions of the garbage collector (marking, scanning,
//     sweeping, write barriers, assists) count for runtime_gc;
//   - runtime functions of channels, goroutine parking and the scheduler
//     count for runtime_sched: the cost of handing control between procs;
//   - everything else, the rest of the runtime and this benchmark included,
//     counts for "other".
var selfLayers = []string{"sim", "cache", "urpc", "monitor", "apps", "obs", "skb", "core", "runtime_sched", "runtime_gc", "other"}

var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gc", "runtime.scan", "runtime.markroot", "runtime.greyobject",
	"runtime.findObject", "runtime.shade", "runtime.sweepone", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	"runtime.wbBuf", "runtime.(*wbBuf)", "runtime.bulkBarrier", "runtime.typePointers",
	"runtime.(*mspan).typePointers", "runtime.(*gcWork)", "runtime.(*gcBits)",
	"runtime.(*mheap).nextSpanForSweep", "runtime.(*scavenger",
}

var schedPrefixes = []string{
	"runtime.chan", "runtime.send", "runtime.recv", "runtime.selectgo", "runtime.block",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.wakep",
	"runtime.lock", "runtime.unlock", "runtime.casgstatus", "runtime.casGToWaiting",
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.gogo",
	"runtime.execute", "runtime.runq", "runtime.globrunq", "runtime.stealWork",
	"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.stopm",
	"runtime.startm", "runtime.mPark", "runtime.handoffp", "runtime.acquirep",
	"runtime.releasep", "runtime.resetspinning", "runtime.checkTimers", "runtime.sem",
	"runtime.procyield", "runtime.osyield", "runtime.usleep", "runtime.gosched",
	"runtime.goschedImpl", "runtime.goexit", "runtime.newproc", "runtime.gfget",
	"runtime.gfput", "runtime.systemstack", "runtime.mstart", "runtime.dropg",
	"runtime.pidle", "runtime.(*waitq)", "runtime.(*timers)", "runtime.netpoll",
	"runtime.nanotime", "runtime.exitsyscall", "runtime.entersyscall", "runtime.pMask",
	"runtime.acquirem", "runtime.releasem", "runtime.(*mLockProfile)", "runtime.(*guintptr)",
	"runtime.(*puintptr)", "runtime.(*muintptr)", "runtime.mget", "runtime.mput",
	"runtime.acquireSudog", "runtime.releaseSudog", "runtime.cheaprand", "runtime.(*randomEnum)",
}

// layerOf maps a function name from a profile to its self-time layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "multikernel/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range selfLayers[:8] {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime_gc"
		}
	}
	for _, p := range schedPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime_sched"
		}
	}
	return "other"
}

// selfShares attributes a gzipped pprof CPU profile to layers and returns each
// layer's share of the sampled CPU time. Every layer of selfLayers is present.
func selfShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(selfLayers))
	for _, l := range selfLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // CPU nanoseconds
		fn := p.funcName[p.locFunc[s.locs[0]]]
		shares[layerOf(fn)] += v
		total += v
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares, nil
}

// ---------------------------------------------------------------------------
// A decoder for the part of the pprof protobuf format attribution needs:
// samples, each location's innermost function, and function names.

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]string
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes.
func (r *pbReader) next() (num int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		n, err := r.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		if uint64(len(r.b)) < n {
			return 0, 0, nil, errTruncated
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		return 0, 0, nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return num, v, data, err
}

// uints decodes a repeated integer field, packed (data) or not (v).
func uints(v uint64, data []byte, out []uint64) ([]uint64, error) {
	if data == nil {
		return append(out, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: make(map[uint64]uint64), funcName: make(map[uint64]string)}
	var strs []string
	funcStr := make(map[uint64]uint64) // function id -> name string index
	r := pbReader{b}
	for len(r.b) > 0 {
		num, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			s, err := parseSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			id, fn, err := parseLocation(data)
			if err != nil {
				return nil, err
			}
			p.locFunc[id] = fn
		case 5: // Function
			id, name, err := parseFunction(data)
			if err != nil {
				return nil, err
			}
			funcStr[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for id, si := range funcStr {
		if si >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	var vals []uint64
	r := pbReader{b}
	for len(r.b) > 0 {
		num, v, data, err := r.next()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			s.locs, err = uints(v, data, s.locs)
		case 2:
			vals, err = uints(v, data, vals)
		}
		if err != nil {
			return s, err
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, nil
}

// parseLocation returns a location's id and the function of its first line,
// which is the innermost of any inlined frames.
func parseLocation(b []byte) (id, fn uint64, err error) {
	r := pbReader{b}
	first := true
	for len(r.b) > 0 {
		num, v, data, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case num == 1:
			id = v
		case num == 4 && first:
			first = false
			lr := pbReader{data}
			for len(lr.b) > 0 {
				n, lv, _, err := lr.next()
				if err != nil {
					return 0, 0, err
				}
				if n == 1 {
					fn = lv
				}
			}
		}
	}
	return id, fn, nil
}

func parseFunction(b []byte) (id, name uint64, err error) {
	r := pbReader{b}
	for len(r.b) > 0 {
		num, v, _, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			id = v
		case 2:
			name = v
		}
	}
	return id, name, nil
}
