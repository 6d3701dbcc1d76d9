package threads

import (
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

type rig struct {
	e    *sim.Engine
	m    *topo.Machine
	sys  *cache.System
	kern *kernel.System
}

func newRig(m *topo.Machine) *rig {
	e := sim.NewEngine(1)
	sys := cache.New(e, m, memory.New(m), interconnect.New(m))
	return &rig{e: e, m: m, sys: sys, kern: kernel.NewSystem(e, m)}
}

func allCores(m *topo.Machine) []topo.CoreID {
	out := make([]topo.CoreID, m.NumCores())
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}

func TestGoAndJoinAll(t *testing.T) {
	r := newRig(topo.AMD4x4())
	team := NewTeam(r.sys, r.kern, allCores(r.m))
	ran := make(map[topo.CoreID]bool)
	var workers []*Thread
	for _, c := range team.Cores() {
		c := c
		workers = append(workers, team.Go(-1, c, "w", func(th *Thread) {
			th.Compute(1000)
			ran[c] = true
		}))
	}
	joined := -1
	team.Go(-1, 0, "main", func(th *Thread) {
		for _, w := range workers {
			w.Join(th)
		}
		joined = len(ran)
	})
	r.e.Run()
	r.e.CheckQuiesced()
	if joined != 16 {
		t.Fatalf("%d threads had finished when the joins returned, want 16", joined)
	}
}

func TestRemoteSpawnCostsMore(t *testing.T) {
	r := newRig(topo.AMD2x2())
	team := NewTeam(r.sys, r.kern, allCores(r.m))
	var localDone, remoteDone sim.Time
	team.Go(0, 0, "local", func(th *Thread) { localDone = th.Proc().Now() })
	team.Go(0, 2, "remote", func(th *Thread) { remoteDone = th.Proc().Now() })
	r.e.Run()
	if remoteDone <= localDone {
		t.Fatalf("remote spawn (%d) not more expensive than local (%d)", remoteDone, localDone)
	}
}

func TestJoinSingleThread(t *testing.T) {
	r := newRig(topo.AMD2x2())
	team := NewTeam(r.sys, r.kern, allCores(r.m))
	var joinedAt sim.Time
	worker := team.Go(-1, 1, "w", func(th *Thread) { th.Compute(5000) })
	team.Go(-1, 0, "joiner", func(th *Thread) {
		worker.Join(th)
		joinedAt = th.Proc().Now()
	})
	r.e.Run()
	if joinedAt < 5000 {
		t.Fatalf("join returned at %d before worker finished", joinedAt)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	r := newRig(topo.AMD4x4())
	team := NewTeam(r.sys, r.kern, allCores(r.m))
	mu := team.NewMutex(0)
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		c := topo.CoreID(i * 2)
		team.Go(-1, c, "locker", func(th *Thread) {
			for j := 0; j < 5; j++ {
				mu.Lock(th)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Compute(200)
				inside--
				mu.Unlock(th)
			}
		})
	}
	r.e.Run()
	r.e.CheckQuiesced()
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d threads inside", maxInside)
	}
}

func TestSpinBarrierRendezvous(t *testing.T) {
	r := newRig(topo.AMD4x4())
	team := NewTeam(r.sys, r.kern, allCores(r.m))
	const n = 16
	b := team.NewSpinBarrier(n, 0)
	var phase [n]int
	for i := 0; i < n; i++ {
		i := i
		team.Go(-1, topo.CoreID(i), "w", func(th *Thread) {
			for round := 0; round < 3; round++ {
				th.Compute(sim.Time(100 * (i + 1))) // deliberately unbalanced
				phase[i] = round
				b.Wait(th)
				// After the barrier, every thread must have finished round.
				for j := 0; j < n; j++ {
					if phase[j] < round {
						t.Errorf("thread %d passed barrier before %d finished round %d", i, j, round)
					}
				}
			}
		})
	}
	r.e.Run()
	r.e.CheckQuiesced()
}

func TestBarrierCostGrowsWithParticipants(t *testing.T) {
	cost := func(n int) sim.Time {
		r := newRig(topo.AMD4x4())
		team := NewTeam(r.sys, r.kern, allCores(r.m))
		b := team.NewSpinBarrier(n, 0)
		var worst sim.Time
		for i := 0; i < n; i++ {
			team.Go(-1, topo.CoreID(i), "w", func(th *Thread) {
				for round := 0; round < 4; round++ {
					start := th.Proc().Now()
					b.Wait(th)
					if d := th.Proc().Now() - start; d > worst {
						worst = d
					}
				}
			})
		}
		r.e.Run()
		return worst
	}
	if c2, c16 := cost(2), cost(16); c16 <= c2 {
		t.Fatalf("barrier cost did not grow: 2 cores %d, 16 cores %d", c2, c16)
	}
}

func TestLoadStoreThroughThread(t *testing.T) {
	r := newRig(topo.AMD2x2())
	team := NewTeam(r.sys, r.kern, allCores(r.m))
	a := r.sys.Memory().AllocLines(1, 0).Base
	team.Go(-1, 1, "w", func(th *Thread) {
		th.Store(a, 99)
		if got := th.Load(a); got != 99 {
			t.Errorf("load=%d", got)
		}
	})
	r.e.Run()
}

func TestEmptyTeamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := newRig(topo.AMD2x2())
	NewTeam(r.sys, r.kern, nil)
}
