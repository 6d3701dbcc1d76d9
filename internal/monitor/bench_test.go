package monitor

import (
	"testing"
	"time"

	"multikernel/internal/topo"
)

// BenchmarkMonitorIdleSweep measures the host cost of a monitor's empty
// polls, the bulk of the simulator's work on the agreement path. Each op
// wakes every parked monitor of the booted 32-core AMD 8×4 machine at once;
// each then makes its urpc.Poller's 40 idle passes over its 31 inbound
// channels, all empty, and parks again. ns/poll is host time per empty poll (one
// cache hit each, so the registry's hit count is the poll count), and
// simevents/op the engine events an op dispatches, which is deterministic.
func BenchmarkMonitorIdleSweep(b *testing.B) {
	f := newFixture(b, topo.AMD8x4())
	f.e.Run() // boot: every monitor polls idle, then parks
	counters := func() (events, hits uint64) {
		c := f.e.Metrics().Snapshot().Counters
		return c["sim.events_dispatched"], c["cache.hits"]
	}
	ev0, hits0 := counters()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, mon := range f.net.monitors {
			f.e.Wake(mon.proc)
		}
		f.e.Run()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	ev1, hits1 := counters()
	if polls := hits1 - hits0; polls > 0 {
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(polls), "ns/poll")
	}
	b.ReportMetric(float64(ev1-ev0)/float64(b.N), "simevents/op")
}
