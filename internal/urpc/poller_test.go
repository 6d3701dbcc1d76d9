package urpc

import (
	"fmt"
	"slices"
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// refPoll is the loop a Poller must be indistinguishable from: its pass
// written as straight-line code with RecvAll, Sleep and Park.
func refPoll(p *sim.Proc, pl *Poller) {
	buf := make([]Message, pl.Burst)
	idle := 0
	for {
		progress := false
		if pl.LocalReady != nil && pl.LocalReady() {
			pl.Local(p)
			progress = true
		}
		for _, sec := range pl.Sections {
			for i, ch := range *sec.Chans {
				if n := ch.RecvAll(p, buf); n > 0 {
					sec.Handle(p, i, buf[:n])
					progress = true
				}
			}
		}
		if pl.EndDue != nil && pl.EndDue() && pl.End(p) {
			progress = true
		}
		if pl.PassCost > 0 {
			p.Sleep(pl.PassCost)
		}
		if progress {
			idle = 0
			continue
		}
		idle++
		if idle < idlePasses || (pl.Busy != nil && pl.Busy()) {
			p.Sleep(pl.IdleGap)
			continue
		}
		if pl.Park != nil {
			pl.Park(p)
		} else {
			p.Park()
		}
		idle = 0
	}
}

// pollerResult is everything the property compares, plus where the
// receiver's pass stood at the first RunUntil cut (Poller runs only).
type pollerResult struct {
	log        []string
	now        sim.Time
	dispatched uint64
	heapMax    int64
	delivered  int
	cutSection int // section the pass was polling at the first cut; -1: none
}

// runPollerCase builds a seeded scenario around one receiver and runs it
// with the receiver on a Poller (poller) or on refPoll. Everything random is
// drawn from the case seed at set-up or by call count, so both runs see the
// same scenario.
func runPollerCase(seed uint64, poller bool) pollerResult {
	e, sys := newSys(topo.AMD4x4())
	defer e.Close()
	g := sim.NewRNG(seed)
	if g.Intn(3) == 0 {
		e.SetPerturb(func(now, delay sim.Time, seq uint64) (sim.Time, uint64) {
			return sim.Time(seq % 3), seq % 2
		})
	}
	res := pollerResult{cutSection: -1}
	logf := func(format string, args ...any) {
		res.log = append(res.log, fmt.Sprintf(format, args...))
	}
	const rcvCore = 5
	var secA, secB []*Channel
	var rcv *sim.Proc
	// The receiver is woken once per park, by whoever finds it parked first:
	// a wakeup token left for a running proc would be consumed by the next
	// Park anywhere in it, including a cache line's Resource.Acquire.
	parked := false
	wake := func() {
		if parked {
			parked = false
			e.Wake(rcv)
		}
	}
	slots := []int{2, 4, 8}[g.Intn(3)]
	burst := []int{1, 2, 4}[g.Intn(3)]
	// addSender builds a channel into the receiver and a proc that sends
	// seeded bursts on it, some longer than the poller's burst and the ring.
	addSender := func(core topo.CoreID, sec *[]*Channel) {
		ch := New(sys, core, rcvCore, Options{Slots: slots, Home: -1})
		*sec = append(*sec, ch)
		type round struct {
			gap sim.Time
			n   int
		}
		rounds := make([]round, 1+g.Intn(5))
		for r := range rounds {
			rounds[r] = round{gap: g.Time(6000), n: 1 + g.Intn(2*burst+2)}
		}
		batch := g.Intn(2) == 0
		e.Spawn(fmt.Sprintf("send%d", core), func(p *sim.Proc) {
			for r, rd := range rounds {
				p.Sleep(rd.gap)
				msgs := make([]Message, rd.n)
				for k := range msgs {
					msgs[k] = Message{uint64(core), uint64(r), uint64(k)}
				}
				if batch {
					ch.SendBatchTimeout(p, msgs, 50_000)
				} else {
					for _, m := range msgs {
						ch.SendTimeout(p, m, 50_000)
					}
				}
				wake()
			}
		})
	}
	for _, c := range []topo.CoreID{1, 9, 12}[:2+g.Intn(2)] {
		addSender(c, &secA)
	}
	addSender(14, &secB)

	// Local work, end-of-pass dueness and busyness flip at seeded times.
	local, due, busy := 0, false, false
	for k := 0; k < 6; k++ {
		at, what := g.Time(30_000), g.Intn(3)
		e.After(at, func() {
			switch what {
			case 0:
				local++
				wake()
			case 1:
				due = !due
			case 2:
				busy = !busy
			}
		})
	}
	// Then both settle, so the receiver parks for good and Run returns.
	e.After(100_000, func() { due, busy = false, false })
	ends := 0
	handleCost := []sim.Time{0, 30}[g.Intn(2)]
	pl := &Poller{
		Burst:    burst,
		PassCost: []sim.Time{0, 0, 8, 100}[g.Intn(4)],
		IdleGap:  []sim.Time{140, 200, 400}[g.Intn(3)],
		Sections: []PollSection{
			{Chans: &secA, Handle: func(p *sim.Proc, i int, msgs []Message) {
				for _, m := range msgs {
					logf("A%d %v @%d", i, m[:3], p.Now())
					res.delivered++
					p.Sleep(handleCost)
				}
			}},
			{Chans: &secB, Handle: func(p *sim.Proc, i int, msgs []Message) {
				for _, m := range msgs {
					logf("B%d %v @%d", i, m[:3], p.Now())
					res.delivered++
					p.Sleep(handleCost)
				}
			}},
		},
		LocalReady: func() bool { return local > 0 },
		Local: func(p *sim.Proc) {
			local--
			logf("local @%d", p.Now())
			p.Sleep(50)
		},
		EndDue: func() bool { return due },
		End: func(p *sim.Proc) bool {
			ends++
			logf("end %d @%d", ends, p.Now())
			p.Sleep(sim.Time(ends%2) * 20)
			return ends%3 == 0
		},
		Busy: func() bool { return busy },
	}
	wakeCost := []sim.Time{0, 900}[g.Intn(2)]
	pl.Park = func(p *sim.Proc) {
		parked = true
		p.Park()
		logf("unpark @%d", p.Now())
		// A monitor-style park charges the interrupt-driven wakeup.
		if wakeCost > 0 {
			p.Sleep(wakeCost)
		}
	}
	rcv = e.Spawn("rcv", func(p *sim.Proc) {
		p.SetDaemon(true)
		if poller {
			pl.Run(p)
		} else {
			refPoll(p, pl)
		}
	})
	if g.Intn(3) == 0 {
		at := g.Time(40_000)
		e.After(at, func() { e.Kill(rcv) })
	}

	// Two RunUntil cuts with a Connect between them: a new sender's channel
	// joins section B while the pass may stand in either section.
	cut1 := 200 + g.Time(20_000)
	cut2 := cut1 + g.Time(20_000)
	e.RunUntil(cut1)
	logf("cut @%d", e.Now())
	if poller && (pl.stage >= pollCheck && pl.stage <= pollRead || pl.stage == pollMiss || pl.stage == pollMsg) {
		res.cutSection = pl.sec
	}
	addSender(3, &secB)
	e.RunUntil(cut2)
	logf("cut @%d", e.Now())
	e.Run()
	snap := e.Metrics().Snapshot()
	res.now = e.Now()
	res.dispatched = snap.Counters["sim.events_dispatched"]
	res.heapMax = snap.Gauges["sim.heap_max_depth"]
	return res
}

// TestPollerMatchesStraightLineLoop is the exactness property of Poller: on
// seeded scenarios — arrivals in bursts longer than the poller's burst and
// the ring, local work, end-of-pass work and busyness flipping, zero and
// non-zero pass costs, a free and a charged wakeup, a Kill, a schedule
// perturbation, and a Connect between two RunUntil cuts — it must reproduce
// the straight-line loop's clock, dispatched-event count, heap high-water
// mark, and the order and time of every delivery and hook.
func TestPollerMatchesStraightLineLoop(t *testing.T) {
	var cutIn [2]int
	delivered := 0
	for seed := uint64(1); seed <= 300; seed++ {
		want, got := runPollerCase(seed, false), runPollerCase(seed, true)
		if !slices.Equal(want.log, got.log) {
			for i := range min(len(want.log), len(got.log)) + 1 {
				var w, g string
				if i < len(want.log) {
					w = want.log[i]
				}
				if i < len(got.log) {
					g = got.log[i]
				}
				if w != g {
					t.Fatalf("seed %d: diverges at entry %d:\nstraight-line: %q\npoller:        %q", seed, i, w, g)
				}
			}
		}
		if want.now != got.now || want.dispatched != got.dispatched || want.heapMax != got.heapMax {
			t.Fatalf("seed %d: straight-line now=%d events=%d heapmax=%d; poller now=%d events=%d heapmax=%d",
				seed, want.now, want.dispatched, want.heapMax, got.now, got.dispatched, got.heapMax)
		}
		delivered += got.delivered
		if got.cutSection >= 0 {
			cutIn[got.cutSection]++
		}
	}
	// The Connect must have landed while a pass stood in each section.
	t.Logf("%d messages delivered; first cut in section A %d times, in section B %d times", delivered, cutIn[0], cutIn[1])
	if delivered == 0 || cutIn[0] == 0 || cutIn[1] == 0 {
		t.Fatalf("first cut stopped a pass in section A %d times and in section B %d times; want both", cutIn[0], cutIn[1])
	}
}
