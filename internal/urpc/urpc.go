// Package urpc implements user-level RPC channels (paper §4.6): the only
// inter-core communication mechanism in the multikernel. A channel is a ring
// of cache-line-sized slots in shared memory, written by a single sender core
// and polled by a single receiver core. The sender writes a message's payload
// words followed by a sequence word; the receiver polls the sequence word, so
// it can never observe a partially-written message.
//
// All transfer costs emerge from the cache-coherence model: a send
// invalidates the receiver's cached copy of the slot (one interconnect round
// trip) and the receiver's next poll fetches the line from the sender's cache
// (the second round trip) — exactly the two-round-trip fast path the paper
// describes for HyperTransport systems.
package urpc

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/memory"
	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// PayloadWords is the number of 64-bit payload words per message; the eighth
// word of the cache line carries the sequence number.
const PayloadWords = 7

// seqOffset is the sequence word's byte offset within a slot's line.
const seqOffset = memory.Addr(PayloadWords * 8)

// Message is one cache-line-sized URPC message.
type Message [PayloadWords]uint64

// DefaultSlots is the ring size used when none is specified — the queue
// length of 16 the paper uses for pipelined throughput measurements.
const DefaultSlots = 16

// RecvCheckCost is the poll-loop check and branch a receive charges before it
// loads the next slot's sequence word (see RecvRest).
const RecvCheckCost = 10

// Software-path costs in cycles, charged on top of the coherence transfers.
const (
	sendSetupCost = 14 // channel bookkeeping before the line write
	recvCopyCost  = 18 // copying the payload out and advancing state
	pollGap       = 25 // cycles between successive idle polls
)

// maxBackoffGap caps the exponential poll backoff of the deadline variants.
const maxBackoffGap = 1600

// Stats counts per-channel activity. Deadline expiries and backoff re-polls
// live in the engine's metrics registry ("urpc.timeouts", "urpc.retries"), not
// here: they are fleet-wide health signals, and keeping one accumulation
// convention avoids the per-channel/per-registry drift the old ad-hoc fields
// suffered from.
type Stats struct {
	Sent      uint64
	Received  uint64
	FullStall uint64 // sends that had to wait for ring space
	Notifies  uint64 // blocked-receiver wakeups
}

// Channel is a unidirectional point-to-point URPC channel.
type Channel struct {
	sys      *cache.System
	eng      *sim.Engine
	Sender   topo.CoreID
	Receiver topo.CoreID

	ring  memory.Region // slots lines
	ack   memory.Region // one line: receiver's consumed count
	slots int

	sendSeq   uint64 // next sequence number to send (starts at 1)
	recvSeq   uint64 // next sequence number to receive
	sendAcked uint64 // sender's view of receiver progress (from the ack line)
	published uint64 // receiver progress as last written to the ack line
	prefetch  bool
	holdAck   bool // receive paths defer ack publication to ackConsumed

	blocked *sim.Proc // receiver parked awaiting notification, if any
	dead    bool      // peer declared fail-stopped; sends are refused
	mut     Mutation  // deliberate protocol defect for checker self-tests
	stats   Stats

	// OnRemoteDeliver, when set on the receiver's replica of a channel whose
	// endpoints live in different ParallelEngine partitions, runs after each
	// cross-partition ring-line delivery — the hook services (kv, monitors)
	// use to wake their dispatch proc, standing in for the sender-side
	// eng.Wake they would have issued under a single engine. Never invoked on
	// a serial engine or an intra-partition channel.
	OnRemoteDeliver func()

	// id is the channel's engine-unique serial; flow-event ids are
	// id<<32|seq, linking a send on the sender core to its receive on the
	// receiver core in exported traces.
	id uint64

	// Registry handles, shared by all channels of one engine.
	mSent, mReceived, mFullStall *metrics.Counter
	mNotifies, mTimeouts         *metrics.Counter
	mRetries                     *metrics.Counter
}

// Options configure channel construction.
type Options struct {
	// Slots is the ring size in messages; 0 means DefaultSlots.
	Slots int
	// Home is the NUMA socket for the ring buffer; -1 homes it on the
	// receiver's socket (the NUMA-aware default from §5.1).
	Home int
	// Prefetch enables receiver-side prefetching of the next slot,
	// trading single-message latency for pipelined throughput (§4.6).
	Prefetch bool
}

// Mutation selects a deliberate protocol defect. The schedule-exploration
// checker's self-tests (internal/check) arm these to prove the transport
// invariants actually bite: a checker that cannot catch a known-planted bug
// is not guarding anything. MutNone (the zero value) is the correct protocol
// and costs nothing.
type Mutation uint8

const (
	// MutNone runs the correct protocol.
	MutNone Mutation = iota
	// MutAckOverpublish publishes receiver progress one message beyond what
	// was actually consumed, silently granting the sender a ring slot whose
	// previous occupant was never delivered.
	MutAckOverpublish
	// MutDropNotify loses the parked-receiver wakeup: the sender believes the
	// notification was delivered, but the receiver stays parked.
	MutDropNotify
)

// Mutate arms a deliberate protocol defect (checker self-tests only).
func (c *Channel) Mutate(m Mutation) { c.mut = m }

// New creates a channel from sender to receiver over the given cache system.
func New(sys *cache.System, sender, receiver topo.CoreID, opts Options) *Channel {
	slots := opts.Slots
	if slots == 0 {
		slots = DefaultSlots
	}
	if slots < 2 {
		panic("urpc: channel needs at least 2 slots")
	}
	home := topo.SocketID(opts.Home)
	if opts.Home < 0 {
		home = sys.Machine().Socket(receiver)
	}
	eng := sys.Engine()
	reg := eng.Metrics()
	c := &Channel{
		sys:        sys,
		eng:        eng,
		Sender:     sender,
		Receiver:   receiver,
		ring:       sys.Memory().AllocLines(slots, home),
		ack:        sys.Memory().AllocLines(1, home),
		slots:      slots,
		prefetch:   opts.Prefetch,
		id:         eng.Serial(),
		mSent:      reg.Counter("urpc.sent"),
		mReceived:  reg.Counter("urpc.received"),
		mFullStall: reg.Counter("urpc.full_stalls"),
		mNotifies:  reg.Counter("urpc.notifies"),
		mTimeouts:  reg.Counter("urpc.timeouts"),
		mRetries:   reg.Counter("urpc.retries"),
	}
	// A one-time geometry record: the transport checker needs each channel's
	// ring size to verify that no slot is reused before its ack.
	eng.Tracer().Emit(uint64(eng.Now()), trace.Instant, trace.SubURPC, int32(sender), "urpc.chan", c.id<<32, uint64(slots))
	// Parallel boot: when sender and receiver live in different partitions,
	// the ring mirrors forward (writer: sender) and the ack line mirrors back
	// (writer: receiver). Both calls are no-ops on a serial engine or when
	// the endpoints share a partition. The construction runs identically in
	// every replica, so region registration order — the cross-replica
	// addressing scheme — lines up by construction.
	sys.ShareRegion(c.ring, sender, receiver, c.remoteArrival)
	sys.ShareRegion(c.ack, receiver, sender, nil)
	return c
}

// remoteArrival runs in the receiver's replica after a cross-partition ring
// line lands. It plays the sender's half of the poll-then-block protocol:
// a parked receiver gets the IPI-modeled wakeup notify would have sent, and
// the service-level hook (if any) runs so dispatch loops parked outside the
// channel learn about the arrival.
func (c *Channel) remoteArrival() {
	if c.OnRemoteDeliver != nil {
		c.OnRemoteDeliver()
	}
	c.wakeBlocked()
}

// wakeBlocked delivers the IPI-cost wakeup a parked receiver is owed for
// messages already in the ring.
func (c *Channel) wakeBlocked() {
	if w := c.blocked; w != nil && c.Pending() {
		c.blocked = nil
		c.stats.Notifies++
		c.mNotifies.Inc()
		eng := c.eng
		eng.After(c.sys.Machine().Costs.IPIDeliver, func() { eng.Wake(w) })
	}
}

// Stats returns a copy of the channel's counters.
func (c *Channel) Stats() Stats { return c.stats }

// Slots returns the ring size.
func (c *Channel) Slots() int { return c.slots }

func (c *Channel) slotAddr(seq uint64) memory.Addr {
	return c.ring.LineAt(int(seq % uint64(c.slots)))
}

// CanSend reports whether the ring has space according to the sender's
// current (possibly stale) view of receiver progress.
func (c *Channel) CanSend() bool {
	return c.sendSeq-c.sendAcked < uint64(c.slots)
}

// waitSpace blocks until the ring has space. The ack line is touched only
// when the sender's cached view (sendAcked) shows the ring full: a view that
// already proves space skips the coherence round trip entirely, so a
// pipelined sender reads the ack line at most once per ring traversal rather
// than once per send.
func (c *Channel) waitSpace(p *sim.Proc) {
	for c.sendSeq-c.sendAcked >= uint64(c.slots) {
		c.stats.FullStall++
		c.mFullStall.Inc()
		// Re-read the receiver's published progress from the ack line.
		c.sendAcked = c.sys.Load(p, c.Sender, c.ack.Base)
		if c.sendSeq-c.sendAcked >= uint64(c.slots) {
			p.Sleep(pollGap)
		}
	}
}

// Send transmits msg, blocking (polling the ack line) while the ring is full.
func (c *Channel) Send(p *sim.Proc, msg Message) {
	c.waitSpace(p)
	c.transmit(p, msg)
}

// SendBatch transmits msgs as pipelined bursts: up to a ring's worth of
// messages is written back-to-back behind a single setup charge and a single
// (stale-view) space check, and a parked receiver gets one coalesced wakeup
// per burst instead of one per message. This is the paper's "cost when
// pipelining" regime — the per-message cost approaches the slot write itself
// as the in-flight depth approaches the ring size.
func (c *Channel) SendBatch(p *sim.Proc, msgs []Message) {
	// Kill audit: a sender fail-stopped mid-burst (Engine.Kill lands at one of
	// the pushSlot yields) has already made some slot writes visible — their
	// sequence words are published — but has not reached this burst's notify.
	// A receiver parked on the ring would then wait forever for messages that
	// are already there. The unwind path delivers the wakeup the slots have
	// earned; on a normal return notify has cleared c.blocked and this is a
	// no-op, so the fault-free path is cycle-identical.
	defer c.wakeBlocked()
	for len(msgs) > 0 {
		c.waitSpace(p)
		msgs = msgs[c.pushBurst(p, msgs):]
	}
}

// pushBurst writes as many of msgs as the ring has space for behind one
// setup charge and one notify, and returns how many it wrote.
func (c *Channel) pushBurst(p *sim.Proc, msgs []Message) int {
	n := min(c.slots-int(c.sendSeq-c.sendAcked), len(msgs))
	rec := c.eng.Tracer()
	rec.Emit(uint64(p.Now()), trace.Begin, trace.SubURPC, int32(c.Sender), "urpc.send", 0, uint64(n))
	p.Sleep(sendSetupCost)
	for _, m := range msgs[:n] {
		c.pushSlot(p, m)
	}
	c.notify(p)
	rec.Emit(uint64(p.Now()), trace.End, trace.SubURPC, int32(c.Sender), "urpc.send", 0, 0)
	return n
}

// InFlight returns the number of sent-but-unacknowledged messages under the
// sender's current (possibly stale) view of receiver progress.
func (c *Channel) InFlight() int { return int(c.sendSeq - c.sendAcked) }

// RefreshAck re-reads the receiver's published progress from the ack line,
// paying the coherence round trip. Windowed senders call it to learn about
// drained slots without transmitting.
func (c *Channel) RefreshAck(p *sim.Proc) {
	c.sendAcked = c.sys.Load(p, c.Sender, c.ack.Base)
}

// SendTimeout is Send with a deadline: if the ring stays full past timeout
// cycles — the signature of a fail-stopped receiver that no longer drains its
// slots — it gives up and reports false. While waiting it re-polls the ack
// line with exponential backoff (pollGap doubling up to maxBackoffGap), so a
// merely slow receiver costs progressively less coherence traffic. A send on
// a channel already marked Dead fails immediately without polling. The
// fault-free fast path (ring not full) is cycle-identical to Send.
func (c *Channel) SendTimeout(p *sim.Proc, msg Message, timeout sim.Time) bool {
	if c.dead {
		return false
	}
	if !c.waitSpaceTimeout(p, p.Now()+timeout) {
		return false
	}
	c.transmit(p, msg)
	return true
}

// waitSpaceTimeout is waitSpace with a deadline: it polls the ack line with
// the transport's exponential backoff and reports false if the ring is still
// full at the deadline.
func (c *Channel) waitSpaceTimeout(p *sim.Proc, deadline sim.Time) bool {
	gap := transportBackoff.Base
	for c.sendSeq-c.sendAcked >= uint64(c.slots) {
		c.stats.FullStall++
		c.mFullStall.Inc()
		c.sendAcked = c.sys.Load(p, c.Sender, c.ack.Base)
		if c.sendSeq-c.sendAcked < uint64(c.slots) {
			break
		}
		if p.Now() >= deadline {
			c.mTimeouts.Inc()
			c.eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubURPC, int32(c.Sender), "urpc.timeout", c.id<<32, 0)
			return false
		}
		c.mRetries.Inc()
		c.eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubURPC, int32(c.Sender), "urpc.backoff", c.id<<32, uint64(gap))
		p.Sleep(gap)
		gap = transportBackoff.Next(gap)
	}
	return true
}

// SendBatchTimeout is SendBatch with a deadline: it transmits msgs as
// pipelined bursts but gives up if the ring stays full past the deadline —
// the fail-stopped-receiver signature — returning how many messages were
// actually pushed. A return short of len(msgs) is the caller's cue to render
// a ChannelDead verdict. Sends on a channel already marked Dead push nothing.
func (c *Channel) SendBatchTimeout(p *sim.Proc, msgs []Message, timeout sim.Time) int {
	if c.dead {
		return 0
	}
	deadline := p.Now() + timeout
	sent := 0
	// Same kill audit as SendBatch: an unwind mid-burst must still deliver the
	// wakeup that already-published slots have earned.
	defer c.wakeBlocked()
	for len(msgs) > 0 {
		if !c.waitSpaceTimeout(p, deadline) {
			return sent
		}
		n := c.pushBurst(p, msgs)
		msgs = msgs[n:]
		sent += n
	}
	return sent
}

// transmit performs the actual slot write and receiver notification; the ring
// must have space.
func (c *Channel) transmit(p *sim.Proc, msg Message) {
	rec := c.eng.Tracer()
	rec.Emit(uint64(p.Now()), trace.Begin, trace.SubURPC, int32(c.Sender), "urpc.send", 0, 0)
	p.Sleep(sendSetupCost)
	c.pushSlot(p, msg)
	c.notify(p)
	rec.Emit(uint64(p.Now()), trace.End, trace.SubURPC, int32(c.Sender), "urpc.send", 0, 0)
}

// pushSlot writes msg into the next slot; the caller has verified ring space
// and charged the setup cost.
func (c *Channel) pushSlot(p *sim.Proc, msg Message) {
	var line [memory.WordsPerLine]uint64
	copy(line[:], msg[:])
	line[PayloadWords] = c.sendSeq + 1 // sequence word written last
	c.sys.StoreLine(p, c.Sender, c.slotAddr(c.sendSeq), line)
	c.sendSeq++
	c.stats.Sent++
	c.mSent.Inc()
	c.eng.Tracer().Emit(uint64(p.Now()), trace.FlowOut, trace.SubURPC, int32(c.Sender), "urpc.msg", c.id<<32|c.sendSeq, 0)
}

// notify wakes a parked receiver, if any. The receiver exhausted its polling
// window and asked its monitor to notify it; model the notification as an
// IPI-cost wakeup (§5.2). Batched sends call this once per burst, so a
// receiver behind on a pipelined stream pays one wakeup, not one per message.
func (c *Channel) notify(p *sim.Proc) {
	if c.blocked == nil {
		return
	}
	w := c.blocked
	c.blocked = nil
	c.stats.Notifies++
	c.mNotifies.Inc()
	if c.mut == MutDropNotify {
		return // planted defect: the wakeup is lost
	}
	// The wakeup is committed before the IPI-latency sleep: if the sender is
	// fail-stopped during the sleep (Engine.Kill unwinds it at that yield),
	// the deferred Unpark still runs, so the receiver is never stranded with
	// messages already visible in the ring. On the fault-free path the defer
	// fires right after the sleep — cycle-identical to the inline call.
	defer p.Unpark(w)
	p.Sleep(c.sys.Machine().Costs.IPIDeliver)
}

// TryRecv polls once; it returns the next message if one is ready.
func (c *Channel) TryRecv(p *sim.Proc) (Message, bool) {
	var msg Message
	slot := c.slotAddr(c.recvSeq)
	t0 := uint64(p.Now())
	p.Sleep(RecvCheckCost)
	if c.sys.Load(p, c.Receiver, slot+seqOffset) != c.recvSeq+1 {
		return msg, false
	}
	// Retroactive span open: only successful polls become urpc.recv slices, so
	// idle polling does not flood the trace; t0 still covers the seq-word
	// fetch that dominates single-message latency.
	rec := c.eng.Tracer()
	rec.Emit(t0, trace.Begin, trace.SubURPC, int32(c.Receiver), "urpc.recv", 0, 0)
	line := c.sys.LoadLine(p, c.Receiver, slot)
	copy(msg[:], line[:PayloadWords])
	p.Sleep(recvCopyCost)
	c.recvSeq++
	c.stats.Received++
	c.mReceived.Inc()
	rec.Emit(uint64(p.Now()), trace.FlowIn, trace.SubURPC, int32(c.Receiver), "urpc.msg", c.id<<32|c.recvSeq, 0)
	// Publish progress so the sender can reuse slots. Writing every
	// half-ring amortizes the reverse-direction coherence traffic; an idle
	// ring publishes immediately so a stalled sender always makes progress.
	if !c.holdAck {
		c.ackConsumed(p)
	}
	if c.prefetch && c.recvSeq > 0 {
		c.sys.Prefetch(p, c.Receiver, c.slotAddr(c.recvSeq))
	}
	rec.Emit(uint64(p.Now()), trace.End, trace.SubURPC, int32(c.Receiver), "urpc.recv", 0, 0)
	return msg, true
}

// RecvAll drains every ready message into buf and returns how many it
// delivered. The poll-loop check cost is charged once per call, not once per
// message, and receiver progress is published to the ack line at most once
// per drained burst — the receive-side half of the pipelining regime. A
// return of 0 means the ring was empty (only the check cost was paid).
func (c *Channel) RecvAll(p *sim.Proc, buf []Message) int {
	t0 := p.Now()
	p.Sleep(RecvCheckCost)
	return c.RecvRest(p, buf, t0, false)
}

// RecvRest is RecvAll after its check charge, which began at t0. With ready
// set, the caller has already made the first sequence-word load and found a
// message: ProbeSeq hit, Costs.L1Hit elapsed, and Pending is true. Poller
// runs its empty polls as engine callbacks: it charges RecvCheckCost and
// that load itself and enters here only on a miss (ready false) or a message
// (ready true), so both paths share this one receive.
func (c *Channel) RecvRest(p *sim.Proc, buf []Message, t0 sim.Time, ready bool) int {
	rec := c.eng.Tracer()
	n := 0
	for n < len(buf) {
		slot := c.slotAddr(c.recvSeq)
		if !ready && c.sys.Load(p, c.Receiver, slot+seqOffset) != c.recvSeq+1 {
			break
		}
		ready = false
		if n == 0 {
			// Retroactive span open, as in TryRecv: empty polls leave no slice.
			rec.Emit(uint64(t0), trace.Begin, trace.SubURPC, int32(c.Receiver), "urpc.recv", 0, 0)
		}
		line := c.sys.LoadLine(p, c.Receiver, slot)
		copy(buf[n][:], line[:PayloadWords])
		p.Sleep(recvCopyCost)
		c.recvSeq++
		c.stats.Received++
		c.mReceived.Inc()
		rec.Emit(uint64(p.Now()), trace.FlowIn, trace.SubURPC, int32(c.Receiver), "urpc.msg", c.id<<32|c.recvSeq, 0)
		if c.prefetch {
			c.sys.Prefetch(p, c.Receiver, c.slotAddr(c.recvSeq))
		}
		n++
	}
	if n > 0 {
		if !c.holdAck {
			c.ackConsumed(p)
		}
		rec.Emit(uint64(p.Now()), trace.End, trace.SubURPC, int32(c.Receiver), "urpc.recv", 0, uint64(n))
	}
	return n
}

// ProbeSeq is the cost-free first half of the receiver's load of the next
// slot's sequence word (cache.System.ProbeHit): true means the receiver's
// cache holds the line, the hit is counted, and the caller owes Costs.L1Hit
// before Pending tells whether a message is there. False means the load
// misses, and only RecvRest (ready false) may make it.
func (c *Channel) ProbeSeq() bool {
	return c.sys.ProbeHit(c.Receiver, c.slotAddr(c.recvSeq)+seqOffset)
}

// ackConsumed publishes receiver progress to the ack line, amortized to one
// reverse-direction store per half-ring (an idle ring publishes immediately so
// a stalled sender always makes progress). The ordinary receive paths call it
// inline; channels constructed with holdAck (bulk descriptor rings) call it
// only after the dequeued descriptor's external payload has been consumed,
// because for them the ack is the slot-reuse grant.
func (c *Channel) ackConsumed(p *sim.Proc) {
	if c.recvSeq-c.published >= uint64(c.slots)/2 || !c.Pending() {
		pub := c.recvSeq
		if c.mut == MutAckOverpublish && pub > 0 {
			pub++ // planted defect: grant a slot that was never consumed
		}
		c.sys.Store(p, c.Receiver, c.ack.Base, pub)
		c.published = pub
		c.eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubURPC, int32(c.Receiver), "urpc.ack", c.id<<32, pub)
	}
}

// Recv polls until a message arrives. It never blocks the simulated core in
// the scheduler sense — this is the dedicated-polling mode used by the
// microbenchmarks.
func (c *Channel) Recv(p *sim.Proc) Message {
	for {
		if m, ok := c.TryRecv(p); ok {
			return m
		}
		p.Sleep(pollGap)
	}
}

// RecvWindow polls for up to window cycles, then parks until the sender
// notifies (the poll-then-block strategy of §5.2). The returned message is
// always valid.
func (c *Channel) RecvWindow(p *sim.Proc, window sim.Time) Message {
	deadline := p.Now() + window
	for {
		if m, ok := c.TryRecv(p); ok {
			return m
		}
		if p.Now() >= deadline {
			break
		}
		p.Sleep(pollGap)
	}
	for {
		if c.blocked != nil {
			panic("urpc: second receiver blocked on channel")
		}
		c.blocked = p
		p.Park()
		c.blocked = nil
		// Charge the wakeup path: trap + context switch back to us.
		mc := c.sys.Machine().Costs
		p.Sleep(mc.Trap + mc.CSwitch)
		if m, ok := c.TryRecv(p); ok {
			return m
		}
	}
}

// RecvTimeout polls for a message until the deadline, backing off
// exponentially between polls (pollGap doubling up to maxBackoffGap). It
// reports false if the deadline passed with no message — the caller's cue to
// suspect the sender and render a ChannelDead verdict via MarkDead.
func (c *Channel) RecvTimeout(p *sim.Proc, timeout sim.Time) (Message, bool) {
	deadline := p.Now() + timeout
	gap := transportBackoff.Base
	for {
		if m, ok := c.TryRecv(p); ok {
			return m, true
		}
		if p.Now() >= deadline {
			c.mTimeouts.Inc()
			c.eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubURPC, int32(c.Receiver), "urpc.timeout", c.id<<32, 0)
			return Message{}, false
		}
		c.mRetries.Inc()
		c.eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubURPC, int32(c.Receiver), "urpc.backoff", c.id<<32, uint64(gap))
		p.Sleep(gap)
		gap = transportBackoff.Next(gap)
	}
}

// MarkDead records a ChannelDead verdict: the peer has been declared
// fail-stopped, and subsequent SendTimeout calls fail immediately. Receiving
// is unaffected (already-written slots may still be drained).
func (c *Channel) MarkDead() { c.dead = true }

// Dead reports whether the channel carries a ChannelDead verdict.
func (c *Channel) Dead() bool { return c.dead }

// PrefetchSlot issues a software prefetch for the next expected message slot
// from the receiver core. Polling loops over many channels use this to model
// the hardware stride prefetcher the paper credits for the master's receive
// loop performance (§5.1): by the time the slot is polled, its line is
// already (or soon) local.
func (c *Channel) PrefetchSlot(p *sim.Proc) {
	c.sys.Prefetch(p, c.Receiver, c.slotAddr(c.recvSeq))
}

// Pending reports whether a message is ready without charging any cost
// (engine-side inspection for tests and schedulers).
func (c *Channel) Pending() bool {
	return c.sys.Memory().LoadWord(c.slotAddr(c.recvSeq)+seqOffset) == c.recvSeq+1
}

// String implements fmt.Stringer.
func (c *Channel) String() string {
	return fmt.Sprintf("urpc %d->%d (%d slots)", c.Sender, c.Receiver, c.slots)
}
