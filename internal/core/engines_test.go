package core

import (
	"testing"

	"multikernel/internal/interconnect"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// engineCase is one configuration of the dual-engine test sweep: the engine
// procs spawn on, the booted system, and the run function that drives the
// workload to completion (Engine.Run serially; ParallelEngine.Run through the
// epoch loop under parallel boots).
type engineCase struct {
	e   *sim.Engine
	s   *System
	run func()
}

// forEachEngine runs a test body under the serial reference engine and under
// BootParallel on a single-partition ParallelEngine. A single partition keeps
// driver-style tests valid — one proc may touch any core's state, exactly as
// under the serial engine — while still exercising the parallel engine's
// epoch grid and barrier machinery. It runs one worker: the engine clamps
// workers to nparts (sim.TestParallelWorkerClamp), so more would repeat the
// same run. Multi-partition behaviour, where every proc must live in the
// replica owning its core, and the worker sweeps that can differ, are
// covered by parallel_test.go and the expt boot workloads.
func forEachEngine(t *testing.T, m *topo.Machine, fn func(t *testing.T, ec engineCase)) {
	forEachEngineOpts(t, m, Options{}, fn)
}

// forEachEngineOpts is forEachEngine with explicit boot options (coherence
// mode, shared replicas), for sweeps that vary system configuration.
func forEachEngineOpts(t *testing.T, m *topo.Machine, opts Options, fn func(t *testing.T, ec engineCase)) {
	t.Run("serial", func(t *testing.T) {
		e := sim.NewEngine(1)
		t.Cleanup(e.Close)
		fn(t, engineCase{e: e, s: BootWith(e, m, opts), run: e.Run})
	})
	t.Run("parallel_w1", func(t *testing.T) {
		pm := topo.Partition(m, 1)
		pe := sim.NewParallelEngine(1, interconnect.Lookahead(m, pm), 1, 1)
		t.Cleanup(pe.Close)
		ps := BootParallel(pe, m, opts)
		fn(t, engineCase{e: pe.Part(0), s: ps.Part(0), run: pe.Run})
	})
}
