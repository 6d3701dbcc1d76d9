package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// sleepSpin is the loop Spin must be indistinguishable from.
func sleepSpin(p *Proc, d Time, step func() (Time, bool)) {
	for {
		p.Sleep(d)
		var done bool
		if d, done = step(); done {
			return
		}
	}
}

// spinCase is one generated scenario for the Spin/Sleep-loop property.
type spinCase struct {
	seed    uint64
	perturb bool
	limits  []Time // RunUntil schedule before the final Runs
	killAt  int    // global step number at which a step kills a proc (0: none)
	stopAt  int    // global step number at which a step calls Stop (0: none)
}

// spinResult is everything the property compares.
type spinResult struct {
	log        []string
	now        Time
	dispatched uint64
	heapMax    uint64
	deadlocked []string
	steps      int
}

// spinRound is one Spin call of a generated proc script, followed by an
// action of the coroutine itself.
type spinRound struct {
	delays []Time // delays[0] is Spin's d; step j returns delays[j]
	after  int    // 0: Sleep(x), 1: ParkTimeout(x), 2: Sleep(0)
	x      Time
}

// spinDelay draws a short delay, often zero or tied with other procs'.
func spinDelay(g *RNG) Time {
	return []Time{0, 1, 2, 3, 5, 8, 13}[g.Intn(7)]
}

// runSpinCase runs tc with every proc polling through Spin (spin) or through
// the equivalent Sleep loop, and records what either way must agree on.
func runSpinCase(t *testing.T, tc spinCase, spin bool) spinResult {
	t.Helper()
	e := NewEngine(tc.seed)
	defer e.Close()
	if tc.perturb {
		e.SetPerturb(func(now, delay Time, seq uint64) (Time, uint64) {
			return Time(seq % 3), seq % 2
		})
	}
	g := NewRNG(tc.seed * 0x9e3779b97f4a7c15)
	var res spinResult
	logf := func(format string, args ...any) {
		res.log = append(res.log, fmt.Sprintf(format, args...))
	}
	const nprocs = 3
	procs := make([]*Proc, nprocs)
	for i := range procs {
		rounds := make([]spinRound, 1+g.Intn(3))
		for r := range rounds {
			ds := make([]Time, 1+g.Intn(5))
			for j := range ds {
				ds[j] = spinDelay(g)
			}
			rounds[r] = spinRound{delays: ds, after: g.Intn(3), x: spinDelay(g)}
		}
		victim := g.Intn(nprocs)
		name := fmt.Sprintf("p%d", i)
		procs[i] = e.Spawn(name, func(p *Proc) {
			defer func() { logf("%s exit @%d", name, e.Now()) }()
			for r, rd := range rounds {
				j := 0
				step := func() (Time, bool) {
					res.steps++
					j++
					logf("%s round %d step %d @%d", name, r, j, e.Now())
					if res.steps == tc.killAt {
						e.Kill(procs[victim])
					}
					if res.steps == tc.stopAt {
						e.Stop()
					}
					if j == len(rd.delays) {
						return 0, true
					}
					return rd.delays[j], false
				}
				if spin {
					p.Spin(rd.delays[0], step)
				} else {
					sleepSpin(p, rd.delays[0], step)
				}
				logf("%s round %d done @%d", name, r, e.Now())
				switch rd.after {
				case 0:
					p.Sleep(rd.x)
				case 1:
					logf("%s timed out %v @%d", name, p.ParkTimeout(rd.x+1), e.Now())
				case 2:
					p.Sleep(0)
				}
			}
		})
	}
	// Timers that interleave with the procs and Wake them: a spinning proc
	// must take the wakeup as a token, exactly as a sleeping one does.
	for k := 0; k < 4; k++ {
		at := Time(g.Intn(40))
		target := procs[g.Intn(nprocs)]
		e.After(at, func() {
			logf("timer wakes %s @%d", target.name, e.Now())
			e.Wake(target)
		})
	}
	for _, l := range tc.limits {
		e.RunUntil(l)
		logf("RunUntil(%d) returned @%d", l, e.Now())
	}
	for k := 0; k < 2; k++ {
		e.Run()
		logf("Run returned @%d", e.Now())
	}
	snap := e.Metrics().Snapshot()
	res.now = e.Now()
	res.dispatched = snap.Counters["sim.events_dispatched"]
	res.heapMax = uint64(snap.Gauges["sim.heap_max_depth"])
	res.deadlocked = e.Deadlocked()
	return res
}

// checkSpinCase requires Spin and the Sleep loop to agree on tc.
func checkSpinCase(t *testing.T, tc spinCase) spinResult {
	t.Helper()
	want, got := runSpinCase(t, tc, false), runSpinCase(t, tc, true)
	if !slices.Equal(want.log, got.log) {
		for i := 0; i < len(want.log) || i < len(got.log); i++ {
			var w, g string
			if i < len(want.log) {
				w = want.log[i]
			}
			if i < len(got.log) {
				g = got.log[i]
			}
			if w != g {
				t.Fatalf("%+v: dispatch order diverges at entry %d:\nsleep loop: %q\nspin:       %q", tc, i, w, g)
			}
		}
	}
	if want.now != got.now || want.dispatched != got.dispatched || want.heapMax != got.heapMax {
		t.Fatalf("%+v: sleep loop now=%d events=%d heapmax=%d; spin now=%d events=%d heapmax=%d",
			tc, want.now, want.dispatched, want.heapMax, got.now, got.dispatched, got.heapMax)
	}
	if !slices.Equal(want.deadlocked, got.deadlocked) {
		t.Fatalf("%+v: deadlocked %v vs %v", tc, want.deadlocked, got.deadlocked)
	}
	return want
}

// TestSpinMatchesSleepLoop is the exactness property of Spin: on random step
// sequences it must reproduce the Sleep loop's clock, dispatched-event
// count, heap high-water mark and dispatch order — with and without a
// perturb hook, across RunUntil limits, after a Stop under Run or RunUntil,
// and with a Kill issued by the step at every possible step.
func TestSpinMatchesSleepLoop(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		for _, perturb := range []bool{false, true} {
			tc := spinCase{seed: seed, perturb: perturb}
			if seed%2 == 0 {
				tc.limits = []Time{Time(seed % 7), 9, 9, Time(20 + seed%5)}
			}
			n := checkSpinCase(t, tc).steps
			if n == 0 {
				t.Fatalf("%+v: no steps ran", tc)
			}
			for k := 1; k <= n; k++ {
				kc := tc
				kc.killAt = k
				checkSpinCase(t, kc)
				sc := tc
				sc.stopAt = k
				checkSpinCase(t, sc)
			}
		}
	}
}

// TestSpinStepsRunAsCallbacks: once Spin has scheduled its wakeup, steps run
// in engine context with no proc resumed, and the coroutine runs again only
// when a step reports done.
func TestSpinStepsRunAsCallbacks(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	// A peer that sleeps in step with the spinner keeps the heap head at the
	// spinner's wakeup time, so no wakeup can be taken in place.
	e.Spawn("peer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(5)
		}
	})
	var inCallback, steps int
	var resumedAt Time
	e.Spawn("spinner", func(p *Proc) {
		p.Spin(5, func() (Time, bool) {
			steps++
			if e.running == nil {
				inCallback++
			}
			return 5, steps == 10
		})
		resumedAt = p.Now()
	})
	e.Run()
	if steps != 10 || inCallback != 10 {
		t.Fatalf("%d steps, %d in engine context; want 10 and 10", steps, inCallback)
	}
	if resumedAt != 50 {
		t.Fatalf("spinner resumed at t=%d, want 50", resumedAt)
	}
}

// TestSpinTakesWakeAsToken: a spinning proc is not parked, so Wake leaves a
// token that its next Park consumes, and no proc wakeup is delivered.
func TestSpinTakesWakeAsToken(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	var p0 *Proc
	parkedThrough := false
	p0 = e.Spawn("spinner", func(p *Proc) {
		n := 0
		p.Spin(10, func() (Time, bool) {
			n++
			return 10, n == 5
		})
		p.Park() // the token from the timer below: returns at once
		parkedThrough = true
	})
	e.After(25, func() { e.Wake(p0) })
	e.Run()
	if !parkedThrough || e.Now() != 50 {
		t.Fatalf("parkedThrough=%v now=%d; want true at t=50", parkedThrough, e.Now())
	}
	if w := e.Metrics().Snapshot().Counters["sim.proc_wakes"]; w != 0 {
		t.Fatalf("sim.proc_wakes=%d, want 0 (a spinning proc is not waiting)", w)
	}
	e.CheckQuiesced()
}

// TestSpinKilledFromTimerUnwindsAtKillTime: a timer kills a spinning proc;
// it unwinds at the kill time, and its pending wakeup is then stale.
func TestSpinKilledFromTimerUnwindsAtKillTime(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	var died Time
	steps := 0
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() { died = p.Now() }()
		p.Spin(100, func() (Time, bool) {
			steps++
			return 100, false
		})
		t.Error("killed proc returned from Spin")
	})
	e.After(250, func() { e.Kill(victim) })
	e.Run()
	if died != 250 || steps != 2 {
		t.Fatalf("died at t=%d after %d steps; want t=250 after 2", died, steps)
	}
	e.CheckQuiesced()
}

// TestSpinCloseReleasesSpinningProcs: Close reaps procs suspended in Spin
// with wakeups still queued, and leaves no goroutine behind.
func TestSpinCloseReleasesSpinningProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	spinning := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			spinning++
			defer func() { spinning-- }()
			p.Spin(Time(3+i), func() (Time, bool) { return Time(3 + i), false })
		})
	}
	e.RunUntil(1000)
	if spinning != 4 {
		t.Fatalf("%d procs in Spin before Close, want 4", spinning)
	}
	e.Close()
	if spinning != 0 || len(e.procs) != 0 {
		t.Fatalf("after Close: %d still in Spin, %d procs alive", spinning, len(e.procs))
	}
	waitGoroutines(t, base)
}
