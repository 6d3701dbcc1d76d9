package urpc

import "multikernel/internal/sim"

// idlePasses is how many passes in a row a Poller finds nothing to do before
// it parks: the polling window of the poll-then-block strategy (§5.2).
const idlePasses = 40

// PollSection is a group of channels a Poller polls in order. *Chans is read
// when the section starts, so a channel appended to it joins at the next
// start. Handle runs on the proc's coroutine with a burst drained from
// (*Chans)[i]; msgs is overwritten by the next burst.
type PollSection struct {
	Chans  *[]*Channel
	Handle func(p *sim.Proc, i int, msgs []Message)
}

// Poller is the receive loop of paper §4.6 and §5.2: poll every channel, and
// after idlePasses passes in a row without work, block until a sender
// notifies. Run makes one pass after another, in this order:
//
//  1. local work, if LocalReady reports some;
//  2. each channel of each section: a burst of up to Burst messages, with
//     one RecvCheckCost charge per channel (RecvAll);
//  3. end-of-pass work, if EndDue reports it due;
//  4. the loop charge, PassCost (none when 0);
//  5. the next pass at once if the pass did work; else a sleep of IdleGap,
//     or a park after idlePasses idle passes unless Busy.
//
// The pass runs under sim.Proc.Spin: empty polls, charges and hooks are
// engine callbacks, and the coroutine resumes only for local work, a
// sequence-word miss, a message, end-of-pass work or the park. Every virtual
// time, event and counter is the same as for the pass written as
// straight-line code with RecvAll, Sleep and Park.
type Poller struct {
	Burst    int      // messages drained per channel per pass
	PassCost sim.Time // loop charge after every pass; 0 charges nothing
	IdleGap  sim.Time // sleep after an idle pass
	Sections []PollSection

	// Hooks that run in engine context and charge nothing; nil reports false.
	LocalReady func() bool // local work is queued
	EndDue     func() bool // end-of-pass work is due
	Busy       func() bool // the proc must keep polling rather than park

	// Work on the proc's coroutine. Local runs when LocalReady reports true
	// and counts as progress; End runs when EndDue reports true and reports
	// whether it made progress; Park blocks the proc (nil: sim.Proc.Park).
	Local func(p *sim.Proc)
	End   func(p *sim.Proc) bool
	Park  func(p *sim.Proc)

	p        *sim.Proc
	stage    pollStage
	sec      int        // index into Sections of the section being polled
	chans    []*Channel // its channels, as read when the section started
	i        int        // index into chans of the channel being polled
	t0       sim.Time   // when chans[i]'s check began
	progress bool       // this pass did work
	idle     int        // idle passes in a row
}

// pollStage is a position in a Poller's pass. The stages up to pollIdle say
// what the pass does next; the rest say why it stopped and handed control to
// the proc's coroutine.
type pollStage uint8

const (
	pollTop    pollStage = iota // start a pass: local work
	pollCheck                   // start polling chans[i], or the next section
	pollProbe                   // the check elapsed: load the sequence word
	pollRead                    // the load hit and its L1 charge elapsed
	pollEnd                     // every channel polled: end-of-pass work
	pollCharge                  // the loop charge
	pollIdle                    // the loop charge elapsed: next pass, sleep or park

	pollLocal   // local work is queued
	pollMiss    // chans[i]'s sequence-word load misses
	pollMsg     // chans[i] holds a message
	pollService // end-of-pass work is due
	pollPark    // idlePasses idle passes in a row: block
)

// Run runs p's receive loop forever.
func (pl *Poller) Run(p *sim.Proc) {
	pl.p = p
	buf := make([]Message, pl.Burst)
	step := pl.step
	for {
		if d, done := pl.step(); !done {
			p.Spin(d, step)
		}
		switch pl.stage {
		case pollLocal:
			pl.Local(p)
			pl.progress = true
			pl.stage = pollCheck
		case pollMiss, pollMsg:
			ch := pl.chans[pl.i]
			if n := ch.RecvRest(p, buf, pl.t0, pl.stage == pollMsg); n > 0 {
				pl.Sections[pl.sec].Handle(p, pl.i, buf[:n])
				pl.progress = true
			}
			pl.i++
			pl.stage = pollCheck
		case pollService:
			if pl.End(p) {
				pl.progress = true
			}
			pl.stage = pollCharge
		case pollPark:
			if pl.Park != nil {
				pl.Park(p)
			} else {
				p.Park()
			}
			pl.idle = 0
			pl.stage = pollTop
		}
	}
}

// step runs the pass from its stage to its next charge, which it returns, or
// to a stage past pollIdle (done). It charges no time and blocks on nothing
// itself, so Spin runs it as an engine callback after each charge.
func (pl *Poller) step() (sim.Time, bool) {
	for {
		switch pl.stage {
		case pollTop:
			// An empty section -1: the first pollCheck moves on to Sections[0].
			pl.progress = false
			pl.sec, pl.chans, pl.i = -1, nil, 0
			pl.stage = pollCheck
			if pl.LocalReady != nil && pl.LocalReady() {
				pl.stage = pollLocal
				return 0, true
			}
		case pollCheck:
			if pl.i == len(pl.chans) {
				if pl.sec++; pl.sec == len(pl.Sections) {
					pl.stage = pollEnd
				} else {
					pl.chans, pl.i = *pl.Sections[pl.sec].Chans, 0
				}
				continue
			}
			pl.t0 = pl.p.Now()
			pl.stage = pollProbe
			return RecvCheckCost, false
		case pollProbe:
			ch := pl.chans[pl.i]
			if !ch.ProbeSeq() {
				pl.stage = pollMiss
				return 0, true
			}
			pl.stage = pollRead
			return ch.sys.Machine().Costs.L1Hit, false
		case pollRead:
			if pl.chans[pl.i].Pending() {
				pl.stage = pollMsg
				return 0, true
			}
			pl.i++
			pl.stage = pollCheck
		case pollEnd:
			if pl.EndDue != nil && pl.EndDue() {
				pl.stage = pollService
				return 0, true
			}
			pl.stage = pollCharge
		case pollCharge:
			// A zero charge is skipped, not slept: Sleep(0) would yield and
			// take a sequence number.
			pl.stage = pollIdle
			if pl.PassCost > 0 {
				return pl.PassCost, false
			}
		case pollIdle:
			pl.stage = pollTop
			if pl.progress {
				pl.idle = 0
				continue
			}
			pl.idle++
			if pl.idle < idlePasses || (pl.Busy != nil && pl.Busy()) {
				return pl.IdleGap, false
			}
			// The park does not poll the channels again first. A caller
			// whose senders wake it only while it is parked (the monitor)
			// can therefore miss a message that lands after its channel was
			// polled; that lost wakeup is kept bit for bit, because closing
			// it moves paper-figure numbers.
			pl.stage = pollPark
			return 0, true
		default:
			panic("urpc: poller stepped past its pass")
		}
	}
}
