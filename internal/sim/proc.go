package sim

import (
	"errors"

	"multikernel/internal/trace"
)

// errKilled is panicked inside a proc coroutine when the engine shuts it
// down; the spawn wrapper recovers it.
var errKilled = errors.New("sim: proc killed")

// Proc is a simulated sequential activity (a core, a device, an OS service,
// an application thread). All Proc methods must be called from the proc's own
// body unless documented otherwise.
type Proc struct {
	e    *Engine
	id   int
	name string

	next    func() (struct{}, bool) // resumes the coroutine until it yields or exits
	yield   func(struct{}) bool     // suspends the coroutine back to the event loop
	done    bool
	killed  bool
	daemon  bool
	waiting bool // parked, waiting for Unpark
	token   bool // a wakeup arrived before Park
	timeout bool // last ParkTimeout expired
	parkSeq uint64

	step   func() (Time, bool) // the Spin in progress (see Spin)
	stepEv func()              // p.spinWake, bound once: Spin's wakeup callback
}

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// SetDaemon marks the proc as a daemon: it is expected to park forever (for
// example, a server waiting for requests) and is excluded from deadlock
// reports. Safe to call from any context before or during the run.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// yieldToEngine suspends the proc's coroutine, returning control to the
// event loop that resumed it, and continues when the loop next dispatches one
// of the proc's events. A proc killed in the meantime unwinds here.
func (p *Proc) yieldToEngine() {
	p.yield(struct{}{})
	if p.killed {
		panic(errKilled)
	}
}

// Sleep advances the proc's local time by d cycles. Other events proceed in
// the meantime. Sleep(0) yields: the proc is rescheduled after all events
// already queued for the current cycle.
//
// When the wakeup would be the next event dispatched anyway, Sleep advances
// the clock in place instead of switching to the event loop and back (see
// sleepInPlace for the exactness rule).
func (p *Proc) Sleep(d Time) {
	if !p.sleepInPlace(d) {
		p.e.schedule(d, p, nil)
		p.yieldToEngine()
	}
}

// sleepInPlace advances the clock by d without scheduling an event, and
// reports whether it did. It may when no perturb hook is installed, the run
// is not stopped or closing, p is not killed, now+d is within the RunUntil
// limit, and now+d is strictly before the earliest queued event (an equal
// time must yield: the queued event has the lower sequence number). It still
// consumes a sequence number and raises the heap high-water mark as the
// scheduled wakeup would have, so event counts, heap depth and all later
// tie-breaks are identical to the scheduled path.
func (p *Proc) sleepInPlace(d Time) bool {
	e := p.e
	at := e.now + d
	if e.perturb != nil || e.stopped || e.closing || p.killed || at > e.limit ||
		(len(e.events) > 0 && at >= e.events[0].at) {
		return false
	}
	e.seq++
	if n := int64(len(e.events)) + 1; n > e.heapMax.Value() {
		e.heapMax.Set(n)
	}
	e.now = at
	return true
}

// Spin is exactly
//
//	for { p.Sleep(d); if d, done = step(); done { return } }
//
// with every virtual time, sequence number and heap high-water mark the same,
// but each wakeup runs step as an engine callback instead of resuming p's
// coroutine. p resumes only when step reports done, inline in that same
// event. A polling loop whose passes mostly find nothing to do is the use:
// its empty passes cost a callback rather than two coroutine switches.
//
// step runs in engine context whenever it is not called from p's own body,
// so it must not block and must not call p's own methods that yield (Sleep,
// Park); it may read the clock, touch model state that charges no time, Wake
// other procs, Kill, and Stop. A panic in step run as a callback leaves Run
// as it is, without the proc's name. A spinning proc is not parked: Wake
// leaves it a token, as for a sleeping proc. Kill resumes it so that it
// unwinds, as from a Sleep.
func (p *Proc) Spin(d Time, step func() (Time, bool)) {
	for p.sleepInPlace(d) {
		var done bool
		if d, done = step(); done {
			return
		}
	}
	if p.stepEv == nil {
		p.stepEv = p.spinWake
	}
	p.step = step
	p.e.schedule(d, nil, p.stepEv)
	p.yield(struct{}{})
	if p.step != nil {
		// Resumed before step reported done: only a kill does that. A kill
		// issued by the final step itself does not unwind here, because in
		// the Sleep loop that step would have run in p's own body.
		panic(errKilled)
	}
}

// spinWake is a Spin wakeup. It runs step, and each further wakeup that
// sleepInPlace can take, until step reports done or a wakeup must be
// scheduled; on done it resumes p. A wakeup that finds p killed resumes p at
// once so that it unwinds, exactly as the wakeup of a Sleep would; one that
// finds p done is stale and does nothing.
func (p *Proc) spinWake() {
	if p.done {
		return
	}
	if !p.killed {
		for {
			d, done := p.step()
			if done {
				p.step = nil
				break
			}
			if !p.sleepInPlace(d) {
				p.e.schedule(d, nil, p.stepEv)
				return
			}
		}
	}
	e := p.e
	e.running = p
	p.next()
	e.running = nil
}

// Park blocks the proc until another activity calls Unpark. If an Unpark
// arrived since the last Park (a "token"), Park consumes it and returns
// immediately, so the Unpark/Park pair cannot race in virtual time.
func (p *Proc) Park() {
	if p.token {
		p.token = false
		return
	}
	p.parkSeq++
	p.waiting = true
	p.yieldToEngine()
}

// ParkTimeout is Park with a timeout of d cycles. It reports whether the wait
// timed out rather than being ended by Unpark. Pass Forever for no timeout.
func (p *Proc) ParkTimeout(d Time) (timedOut bool) {
	if p.token {
		p.token = false
		return false
	}
	p.parkSeq++
	seq := p.parkSeq
	p.waiting = true
	p.timeout = false
	if d < Forever {
		p.e.After(d, func() {
			if p.waiting && p.parkSeq == seq {
				p.timeout = true
				p.waiting = false
				p.e.schedule(0, p, nil)
			}
		})
	}
	p.yieldToEngine()
	return p.timeout
}

// Unpark wakes target if it is parked, or leaves a token making its next Park
// return immediately. It may be called from any proc or engine callback, and
// is idempotent while the target remains parked-and-signalled.
func (p *Proc) Unpark(target *Proc) { p.e.Wake(target) }

// Wake is Unpark callable from engine callbacks (timers, device models).
func (e *Engine) Wake(target *Proc) {
	if target.done || target.killed {
		return
	}
	if target.waiting {
		target.waiting = false
		e.wakes++
		e.rec.Emit(uint64(e.now), trace.Instant, trace.SubSim, -1, "sim.wake", 0, uint64(target.id))
		e.schedule(0, target, nil)
		return
	}
	target.token = true
}
