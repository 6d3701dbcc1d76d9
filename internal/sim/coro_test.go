package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestProcPanicSurfacesOnCaller: a genuine panic inside simulated code is
// re-raised out of Run on the caller's goroutine, where it can be recovered,
// carrying the proc's name and the virtual time of the panic.
func TestProcPanicSurfacesOnCaller(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(42)
		panic("boom")
	})
	ran := false
	e.After(100, func() { ran = true })
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("Run did not panic with a message: %#v", got)
	}
	for _, want := range []string{`proc "faulty"`, "t=42", "boom"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q lacks %q", msg, want)
		}
	}
	if ran {
		t.Error("engine kept dispatching after the proc panicked")
	}
	if e.Now() != 42 {
		t.Errorf("clock moved past the panic: now=%d", e.Now())
	}
	e.Close()
}

// TestSleepAfterStopReturnsToRun: a Sleep issued after Stop must not take
// the no-switch path. Run returns at the Stop instant with the wakeup still
// queued, and the next Run resumes the proc at its exact wake time.
func TestSleepAfterStopReturnsToRun(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	var woke Time
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(10)
		e.Stop()
		p.Sleep(5)
		woke = p.Now()
	})
	e.Run()
	if e.Now() != 10 || woke != 0 {
		t.Fatalf("Run returned at t=%d (woke=%d), want t=10 with the proc asleep", e.Now(), woke)
	}
	if len(e.events) != 1 || e.events[0].at != 15 {
		t.Fatalf("wakeup not queued at t=15: %d events", len(e.events))
	}
	e.Run()
	if woke != 15 {
		t.Fatalf("proc woke at t=%d, want 15", woke)
	}
}

// TestSleepAcrossRunUntilLimit: a Sleep past the RunUntil limit parks the
// proc at the limit and resumes it at the exact time on the next Run.
func TestSleepAcrossRunUntilLimit(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	var woke []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(30)
		woke = append(woke, p.Now())
		p.Sleep(40) // crosses the t=50 limit
		woke = append(woke, p.Now())
	})
	e.RunUntil(50)
	if e.Now() != 50 || len(woke) != 1 || woke[0] != 30 {
		t.Fatalf("after RunUntil(50): now=%d woke=%v", e.Now(), woke)
	}
	e.Run()
	if len(woke) != 2 || woke[1] != 70 {
		t.Fatalf("after Run: woke=%v, want [30 70]", woke)
	}
}

// TestSleepZeroAlternates: Sleep(0) still yields to a peer queued at the same
// instant, so two procs interleave strictly.
func TestSleepZeroAlternates(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	var order strings.Builder
	for _, name := range []string{"A", "B"} {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				order.WriteString(name)
				p.Sleep(0)
			}
		})
	}
	e.Run()
	if got := order.String(); got != "ABABAB" {
		t.Fatalf("order %q, want ABABAB", got)
	}
	if e.Now() != 0 {
		t.Fatalf("Sleep(0) advanced the clock to %d", e.Now())
	}
}

// TestPerturbHookSeesEverySleep: with a perturb hook installed no Sleep may
// skip scheduling, so the hook observes every event the engine dispatches.
// The fast path, for its part, must leave the dispatched count unchanged.
func TestPerturbHookSeesEverySleep(t *testing.T) {
	run := func(hook bool) (dispatched uint64, calls int) {
		e := NewEngine(1)
		defer e.Close()
		if hook {
			e.SetPerturb(func(now, delay Time, seq uint64) (Time, uint64) {
				calls++
				return 0, 0
			})
		}
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
		return e.Metrics().Snapshot().Counters["sim.events_dispatched"], calls
	}
	base, _ := run(false)
	dispatched, calls := run(true)
	// One start event plus ten sleeps, all scheduled under the hook.
	if dispatched != 11 || calls != 11 {
		t.Fatalf("with hook: dispatched=%d hook calls=%d, want 11 and 11", dispatched, calls)
	}
	if base != dispatched {
		t.Fatalf("fast path changed the dispatched count: %d vs %d", base, dispatched)
	}
}

// TestCloseReleasesEveryCoroutine builds procs in every lifecycle state —
// never started, parked, sleeping, killed while sleeping but not yet unwound,
// and finished — and checks that Close leaves no goroutine behind.
func TestCloseReleasesEveryCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	e.Spawn("finished", func(p *Proc) { p.Sleep(1) })
	e.Spawn("parked", func(p *Proc) { p.Park() })
	e.Spawn("sleeping", func(p *Proc) { p.Sleep(1_000_000) })
	victim := e.Spawn("killed", func(p *Proc) { p.Sleep(1_000_000) })
	e.RunUntil(100)
	e.Kill(victim) // its unwind event stays queued: Close must reap it
	e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
	if n := len(e.procs); n != 4 {
		t.Fatalf("%d live procs before Close, want 4", n)
	}
	e.Close()
	if n := len(e.procs); n != 0 {
		t.Fatalf("%d procs alive after Close", n)
	}
	waitGoroutines(t, base)
}

// TestParallelCoroutineResumeAcrossWorkers runs a ParallelEngine at 4 workers
// for well over 100 epochs with procs whose sleeps straddle epoch boundaries,
// so a proc suspended by one worker goroutine is resumed by another. The wake
// log must match the single-worker run; under -race, iter.Pull's
// happens-before edges are what keep the detector quiet.
func TestParallelCoroutineResumeAcrossWorkers(t *testing.T) {
	const (
		parts     = 4
		lookahead = Time(100)
		epochs    = 120
	)
	run := func(workers int) [parts][]Time {
		pe := NewParallelEngine(parts, lookahead, 3, workers)
		defer pe.Close()
		var logs [parts][]Time
		for i := 0; i < parts; i++ {
			e := pe.Part(i)
			for j, step := range []Time{37, 151, 263} {
				pe.Spawn(i, fmt.Sprintf("s%d.%d", i, j), func(p *Proc) {
					for p.Now()+step < epochs*lookahead {
						p.Sleep(step + e.RNG().Time(5))
						logs[i] = append(logs[i], p.Now())
					}
				})
			}
		}
		pe.Run()
		if last := pe.Part(0).Now(); last < (epochs-1)*lookahead {
			t.Fatalf("workers=%d: run ended at t=%d, fewer than %d epochs", workers, last, epochs)
		}
		return logs
	}
	ref, got := run(1), run(4)
	for i := range ref {
		if fmt.Sprint(ref[i]) != fmt.Sprint(got[i]) {
			t.Fatalf("partition %d wake log differs at 4 workers", i)
		}
	}
}

// TestKilledProcSleepInDeferStaysKilled: cleanup code a killed proc runs
// while unwinding may Sleep, but that Sleep must go through the event loop
// and unwind again instead of advancing the clock in place — even when the
// kill's own event is long gone and nothing else is queued.
func TestKilledProcSleepInDeferStaysKilled(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	pastSleep := false
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() {
			p.Sleep(10)
			pastSleep = true
		}()
		p.Park()
	})
	e.After(5, func() { e.Kill(victim) })
	e.Run()
	if pastSleep {
		t.Fatal("killed proc's deferred Sleep returned")
	}
	if e.Now() != 15 {
		t.Fatalf("now=%d, want 15 (the deferred Sleep's event dispatched)", e.Now())
	}
	e.CheckQuiesced()
}
