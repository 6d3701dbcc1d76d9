package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"multikernel/internal/sim"
)

// span is one recorded call into a layer: the benchmark's own code opens it
// right before a public call (core.BootWith, monitor.Monitor.Unmap,
// apps.ClusterClient.Get, cache.System.RMW, ...) and closes it right after.
type span struct {
	Name    string `json:"name"`
	Parent  int32  `json:"parent"` // index of the enclosing span, -1 for none
	Op      int64  `json:"op"`     // workload op id, -1 outside ops
	HostBeg int64  `json:"host_start_ns"`
	HostEnd int64  `json:"host_end_ns"`
	SimBeg  uint64 `json:"sim_start"`
	SimEnd  uint64 `json:"sim_end"`
}

// tracer keeps spans in memory until the run ends. It is safe for use from
// several engine workers at once; while off, begin returns -1 and end ignores
// it, so call sites trace unconditionally.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int32, op int64, now sim.Time) int32 {
	if !t.on.Load() {
		return -1
	}
	host := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, HostBeg: host, SimBeg: uint64(now)})
	return int32(len(t.spans) - 1)
}

// end closes span id at virtual time now.
func (t *tracer) end(id int32, now sim.Time) {
	if id < 0 {
		return
	}
	host := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.HostEnd = host
	s.SimEnd = uint64(now)
}

// durations returns, for every closed span with the given name, its virtual
// duration in cycles and its host duration in nanoseconds, each sorted.
func (t *tracer) durations(name string) (cycles, hostNs []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name != name || s.HostEnd == 0 {
			continue
		}
		cycles = append(cycles, float64(s.SimEnd-s.SimBeg))
		hostNs = append(hostNs, float64(s.HostEnd-s.HostBeg))
	}
	sort.Float64s(cycles)
	sort.Float64s(hostNs)
	return cycles, hostNs
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
