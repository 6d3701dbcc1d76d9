package expt

import (
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// The kvfault fault matrix — seeded fail-stops, deadline detection,
// promotion, anti-entropy recruitment, admission-control sheds — must report
// identical figures whether the run is driven by the serial reference engine
// or by a one-partition ParallelEngine, whose epoch loop then carries every
// fail-stop and deadline. One worker is the whole sweep: the engine clamps
// workers to its partition count (sim.TestParallelWorkerClamp).
// kvfaultResult is a plain struct of numbers, so == is the whole comparison.
func TestKVFaultParallelEngineIdentity(t *testing.T) {
	for _, kills := range []int{1, 2} {
		ref := kvfaultPoint(7, kills)
		if ref.promotions == 0 {
			t.Fatalf("kills=%d: reference run saw no promotions; fault matrix not exercised", kills)
		}
		pe := sim.NewParallelEngine(1, sim.Forever, 7, 1)
		got := kvfaultRun(newEnv(pe.Part(0), topo.AMD4x4()), 7, kills, pe.RunUntil)
		pe.Close()
		if got != ref {
			t.Errorf("kills=%d: parallel engine %+v diverges from serial %+v", kills, got, ref)
		}
	}
}
