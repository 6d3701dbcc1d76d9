package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"multikernel/internal/apps"
	"multikernel/internal/cache"
	"multikernel/internal/caps"
	"multikernel/internal/core"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/metrics"
	"multikernel/internal/monitor"
	"multikernel/internal/obs"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// opResult is one workload op as the model saw it.
type opResult struct {
	cycles sim.Time
	ok     bool
}

// check is one end-of-run correctness check; err is nil when it passed.
type check struct {
	name string
	err  error
}

// bench is one booted system running a workload round by round. Round r's
// ops are a pure function of the seed and of the rounds before it, so a run
// that stops at any round boundary agrees with every longer run up to there.
// That is what lets the measured phase last a fixed host time while the
// model window stays bit-identical.
type bench interface {
	// round runs the next round to completion and returns its ops in a
	// fixed order.
	round(tr *tracer, parent int32) []opResult
	// snapshot returns the engine metrics registry (merged over partitions).
	snapshot() metrics.Snapshot
	// now returns the virtual time between rounds.
	now() sim.Time
	// checks runs the end-of-run correctness checks.
	checks() []check
	close()
}

// bootTimes splits one set-up for the core.* per-layer metrics.
type bootTimes struct {
	build, drain time.Duration
	drainEvents  uint64
}

// workload is one benchmark scenario.
type workload struct {
	name string
	// setups is how many times a run boots the system: setup_s is their
	// median, and the last one runs the workload.
	setups int
	// window is the model window in rounds, after one warm-up round: about
	// 1.5–6 host seconds on a 2-core host, and enough ops for a tail
	// percentile with ten samples beyond it.
	window int
	build  func(seed uint64, tr *tracer) (bench, bootTimes)
}

var workloads = []*workload{
	{name: "agree", setups: 15, window: 11, build: func(seed uint64, tr *tracer) (bench, bootTimes) {
		eng, bt := bootSerial(seed, topo.AMD8x4(), core.Options{}, tr)
		return newAgree(seed, eng), bt
	}},
	{name: "kv", setups: 15, window: 400, build: buildKV},
	{name: "mesh", setups: 3, window: 200, build: buildMesh},
	{name: "agree-par", setups: 15, window: 11, build: func(seed uint64, tr *tracer) (bench, bootTimes) {
		eng, bt := bootParallel(seed, topo.AMD8x4(), tr)
		return newAgree(seed, eng), bt
	}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const eventsCounter = "sim.events_dispatched"

// ---------------------------------------------------------------------------
// Engines

// engines hides the serial/parallel split from the agree workload.
type engines struct {
	serial *core.System         // the serial system, nil on the parallel engine
	par    *core.ParallelSystem // the parallel system, nil on the serial engine

	run      func() // run to quiescence
	snapshot func() metrics.Snapshot
	close    func()
}

// local returns the system replica that owns core c.
func (g engines) local(c topo.CoreID) *core.System {
	if g.serial != nil {
		return g.serial
	}
	return g.par.Local(c)
}

// systems returns every replica, once each.
func (g engines) systems() []*core.System {
	if g.serial != nil {
		return []*core.System{g.serial}
	}
	return g.par.Parts
}

// timedDrain runs the freshly built system to quiescence, recording the
// core.drain span and the drain's host time and event count.
func timedDrain(tr *tracer, run func(), snap func() metrics.Snapshot, now func() sim.Time) (time.Duration, uint64) {
	before := snap().Counters[eventsCounter]
	id := tr.begin("core.drain", -1, -1, now())
	t0 := time.Now()
	run()
	d := time.Since(t0)
	tr.end(id, now())
	return d, snap().Counters[eventsCounter] - before
}

// bootSerial boots m on a fresh serial engine and drains it.
func bootSerial(seed uint64, m *topo.Machine, opts core.Options, tr *tracer) (engines, bootTimes) {
	e := sim.NewEngine(seed)
	var bt bootTimes
	id := tr.begin("core.boot", -1, -1, e.Now())
	t0 := time.Now()
	s := core.BootWith(e, m, opts)
	bt.build = time.Since(t0)
	tr.end(id, e.Now())
	reg := e.Metrics()
	bt.drain, bt.drainEvents = timedDrain(tr, e.Run, reg.Snapshot, e.Now)
	return engines{serial: s, run: e.Run, snapshot: reg.Snapshot, close: e.Close}, bt
}

// parWorkers is the host worker count of the parallel engine.
const parWorkers = 2

// bootParallel boots m on a parallel engine with one partition per socket and
// drains it.
func bootParallel(seed uint64, m *topo.Machine, tr *tracer) (engines, bootTimes) {
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), seed, parWorkers)
	now := func() sim.Time {
		var t sim.Time
		for i := 0; i < pe.NParts(); i++ {
			t = max(t, pe.Part(i).Now())
		}
		return t
	}
	// Partition clocks stop at their own last event; aligning them after
	// every run lets the next op be spawned in any partition without
	// scheduling a delivery into another partition's past.
	run := func() {
		pe.Run()
		pe.RunUntil(now())
	}
	var bt bootTimes
	id := tr.begin("core.boot", -1, -1, 0)
	t0 := time.Now()
	ps := core.BootParallel(pe, m, core.Options{})
	bt.build = time.Since(t0)
	tr.end(id, now())
	bt.drain, bt.drainEvents = timedDrain(tr, run, pe.MetricsSnapshot, now)
	return engines{par: ps, run: run, snapshot: pe.MetricsSnapshot, close: pe.Close}, bt
}

// cacheInvariants runs cache.System.CheckInvariants on every replica, turning
// its panic into an error, and checks the MOESI single-owner rules on every
// line the replicas track.
func cacheInvariants(systems []*core.System) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	for _, s := range systems {
		s.Cache.CheckInvariants()
		s.Cache.ForEachLine(func(id memory.LineID, v cache.LineView) {
			if err == nil {
				err = checkLine(id, v)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkLine applies the single-owner rules to one directory entry: an owner
// holds a copy, and a dirty line has an owner.
func checkLine(id memory.LineID, v cache.LineView) error {
	if v.Owner >= 0 && !v.Holders.Has(v.Owner) {
		return fmt.Errorf("line %#x: owner %d holds no copy", uint64(id), v.Owner)
	}
	if v.Dirty && v.Owner < 0 {
		return fmt.Errorf("line %#x: dirty without an owner", uint64(id))
	}
	return nil
}

// ---------------------------------------------------------------------------
// agree: machine-wide agreement (Figs 6–8)

const (
	agreeBytes      = 4096
	agreeUnmapVA    = 0x4000_0000 // a VA in address space 0
	agreeRetypeBase = 0x8000_0000 // fresh physical ranges are carved from here
	agreeRetypeGap  = 0x10000
)

type agreeKind uint8

const (
	opUnmap agreeKind = iota
	opRetype
	opRevoke
)

var agreeSpan = [...]string{opUnmap: "monitor.unmap", opRetype: "monitor.retype", opRevoke: "monitor.revoke"}

// agreeMix is one round's ops, issued in a seeded order: every round has the
// same mix, so rounds of different seeds cost the same on average.
var agreeMix = []agreeKind{opUnmap, opUnmap, opUnmap, opUnmap, opUnmap, opUnmap, opRetype, opRetype, opRevoke, opRevoke}

// agree issues one machine-wide op at a time from a seeded initiator core: a
// NUMA-aware multicast Unmap, or a two-phase Retype of a fresh range or
// Revoke of a live one. Each op runs on a proc of its own and the engine
// drains to quiescence before the next.
type agree struct {
	eng   engines
	cores int
	rng   *sim.RNG
	next  memory.Addr   // base of the next fresh retype range
	live  []memory.Addr // committed retypes not yet revoked, ascending
	opID  int64
}

func newAgree(seed uint64, eng engines) *agree {
	return &agree{
		eng:   eng,
		cores: eng.local(0).Mach.NumCores(),
		rng:   sim.NewRNG(seed ^ 0xa9ee),
		next:  agreeRetypeBase,
	}
}

func (a *agree) round(tr *tracer, parent int32) []opResult {
	out := make([]opResult, len(agreeMix))
	for i, k := range a.rng.Perm(len(agreeMix)) {
		init := topo.CoreID(a.rng.Intn(a.cores))
		kind, base := agreeMix[k], a.next
		if kind == opRevoke && len(a.live) == 0 {
			kind = opRetype
		}
		switch kind {
		case opUnmap:
			base = agreeUnmapVA
		case opRetype:
			a.next += agreeRetypeGap
		case opRevoke:
			base = a.live[a.rng.Intn(len(a.live))]
		}
		res := &out[i]
		a.issue(init, kind, base, res, tr, parent)
		if res.ok {
			a.commit(kind, base)
		}
	}
	return out
}

// issue runs one op from core init to quiescence.
func (a *agree) issue(init topo.CoreID, kind agreeKind, base memory.Addr, res *opResult, tr *tracer, parent int32) {
	s := a.eng.local(init)
	op := a.opID
	a.opID++
	opSpan := tr.begin("op", parent, op, s.Eng.Now())
	s.Eng.Spawn("agree-op", func(p *sim.Proc) {
		mon := s.Net.Monitor(init)
		t0 := p.Now()
		id := tr.begin(agreeSpan[kind], opSpan, op, t0)
		switch kind {
		case opUnmap:
			res.ok = mon.Unmap(p, base, agreeBytes, nil, monitor.NUMAAware)
		case opRetype:
			res.ok = mon.Retype(p, base, agreeBytes, caps.Frame, 0, s.RetypeTargets())
		case opRevoke:
			res.ok = mon.Revoke(p, base, agreeBytes, s.RetypeTargets())
		}
		tr.end(id, p.Now())
		res.cycles = p.Now() - t0
	})
	a.eng.run()
	tr.end(opSpan, s.Eng.Now())
}

// commit updates the expected capability state after a committed op.
func (a *agree) commit(kind agreeKind, base memory.Addr) {
	switch kind {
	case opRetype:
		a.live = append(a.live, base)
		sort.Slice(a.live, func(i, j int) bool { return a.live[i] < a.live[j] })
	case opRevoke:
		for i, b := range a.live {
			if b == base {
				a.live = append(a.live[:i], a.live[i+1:]...)
				break
			}
		}
	}
}

func (a *agree) snapshot() metrics.Snapshot { return a.eng.snapshot() }
func (a *agree) now() sim.Time              { return a.eng.local(0).Eng.Now() }
func (a *agree) close()                     { a.eng.close() }

func (a *agree) checks() []check {
	return []check{
		{"caps.consistent", a.capsConsistent()},
		{"caps.expected", a.capsExpected()},
		{"cache.invariants", cacheInvariants(a.eng.systems())},
	}
}

// capsConsistent is System.CheckCapConsistency; on the parallel engine each
// core's capability space is authoritative only in its owning replica, so
// the same audit runs over those spaces.
func (a *agree) capsConsistent() error {
	if a.eng.serial != nil {
		return a.eng.serial.CheckCapConsistency()
	}
	spaces := make([]*caps.CSpace, a.cores)
	for c := range spaces {
		spaces[c] = a.eng.local(topo.CoreID(c)).Net.Monitor(topo.CoreID(c)).CS
	}
	return caps.ConflictCheck(spaces...)
}

// capsExpected checks that every core holds exactly one Frame capability per
// committed, unrevoked retype and no other typed capability.
func (a *agree) capsExpected() error {
	for c := 0; c < a.cores; c++ {
		cs := a.eng.local(topo.CoreID(c)).Net.Monitor(topo.CoreID(c)).CS
		var typed []caps.Capability
		for _, cp := range cs.All() {
			if cp.Type != caps.RAM && cp.Type != caps.Null {
				typed = append(typed, cp)
			}
		}
		if len(typed) != len(a.live) {
			return fmt.Errorf("core %d holds %d typed capabilities, want %d", c, len(typed), len(a.live))
		}
		for i, cp := range typed {
			if cp.Type != caps.Frame || cp.Base != a.live[i] || cp.Bytes != agreeBytes {
				return fmt.Errorf("core %d holds %s, want Frame at %#x", c, cp, uint64(a.live[i]))
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// kv: the replicated kvcluster under closed-loop clients

const (
	kvClients       = 8
	kvKeysPerClient = 16
	kvOpsPerClient  = 12 // per round
	kvObsInterval   = 200_000
	kvFDPeriod      = 400_000
	kvOpTimeout     = 100_000
	kvSettle        = 1_000_000
)

// kvServers hold the 4 shards × 2 replicas on sockets 0–3; the clients run two
// per socket on sockets 4–7. Core 0 hosts the obs root and the detector.
var (
	kvServers     = []topo.CoreID{1, 5, 9, 13}
	kvClientCores = []topo.CoreID{16, 18, 20, 22, 24, 26, 28, 30}
)

// kvInitial is the value NewKVCluster seeds key k with.
func kvInitial(k uint64) uint64 { return k*2654435761 + 1 }

type kvClient struct {
	cc     *apps.ClusterClient
	core   topo.CoreID
	proc   *sim.Proc
	rng    *sim.RNG
	lo     uint64            // first key of the client's own range
	acked  map[uint64]uint64 // last acknowledged Put per key
	serial uint64
	res    []opResult
}

// expect is the value a Get of key must return: only this client writes it.
func (c *kvClient) expect(key uint64) uint64 {
	if v, ok := c.acked[key]; ok {
		return v
	}
	return kvInitial(key)
}

type kv struct {
	e       *sim.Engine
	s       *core.System
	cl      *apps.KVCluster
	clients []*kvClient
	gen     int // rounds started
	done    int // clients finished with the current round
	opID    int64

	// Set by the host loop before each round, read by the client procs.
	tr       *tracer
	parent   int32
	readback bool  // the round reads every key back instead
	bad      error // first read-back mismatch
}

func buildKV(seed uint64, tr *tracer) (bench, bootTimes) {
	eng, bt := bootSerial(seed, topo.AMD8x4(), core.Options{}, tr)
	s := eng.serial
	e := s.Eng
	k := &kv{e: e, s: s}

	s.Net.EnableFaultTolerance(kvOpTimeout)
	k.cl = apps.NewKVCluster(e, s.Cache, s.Net, apps.ClusterConfig{
		Shards:   4,
		Replicas: 2,
		Rows:     kvClients * kvKeysPerClient,
		Servers:  kvServers,
	})
	k.cl.StartFailureDetector(s.Net, 0, kvFDPeriod)
	obs.NewPlane(e, s.Cache, s.KB, obs.Config{Interval: kvObsInterval, Seed: seed, Publish: true}).Start()
	for i, c := range kvClientCores {
		kc := &kvClient{
			cc:    k.cl.Connect(c),
			core:  c,
			rng:   sim.NewRNG(seed ^ uint64(i+1)*0x9e37_79b9_7f4a_7c15),
			lo:    uint64(i * kvKeysPerClient),
			acked: make(map[uint64]uint64),
		}
		kc.proc = e.Spawn(fmt.Sprintf("kvclient@c%d", c), func(p *sim.Proc) { k.clientLoop(p, kc) })
		k.clients = append(k.clients, kc)
	}
	e.RunUntil(e.Now() + kvSettle)
	return k, bt
}

// clientLoop parks until the host loop starts a new round; the last client to
// finish a round stops the engine, handing control back to the host loop. A
// server's reply can leave a wakeup token behind, so a wakeup alone does not
// start a round.
func (k *kv) clientLoop(p *sim.Proc, c *kvClient) {
	for seen := 0; ; seen++ {
		for k.gen == seen {
			p.Park()
		}
		if k.readback {
			k.readBack(p, c)
		} else {
			for i := 0; i < kvOpsPerClient; i++ {
				c.res = append(c.res, k.op(p, c))
			}
		}
		k.done++
		if k.done == len(k.clients) {
			k.e.Stop()
		}
	}
}

// op issues one seeded Get or Put (2:1) on the client's own key range. A Get
// must return the client's last acknowledged Put of the key.
func (k *kv) op(p *sim.Proc, c *kvClient) opResult {
	key := c.lo + uint64(c.rng.Intn(kvKeysPerClient))
	put := c.rng.Intn(3) == 0
	op := k.opID
	k.opID++
	t0 := p.Now()
	if put {
		c.serial++
		val := uint64(c.core)<<32 | c.serial
		id := k.tr.begin("apps.put", k.parent, op, t0)
		_, err := c.cc.Put(p, key, val)
		k.tr.end(id, p.Now())
		if err == nil {
			c.acked[key] = val
		}
		return opResult{p.Now() - t0, err == nil}
	}
	id := k.tr.begin("apps.get", k.parent, op, t0)
	v, found, err := c.cc.Get(p, key)
	k.tr.end(id, p.Now())
	return opResult{p.Now() - t0, err == nil && found && v == c.expect(key)}
}

// readBack reads every key of the client's range and compares it with the
// client's last acknowledged Put.
func (k *kv) readBack(p *sim.Proc, c *kvClient) {
	for key := c.lo; key < c.lo+kvKeysPerClient; key++ {
		v, found, err := c.cc.Get(p, key)
		if k.bad == nil && (err != nil || !found || v != c.expect(key)) {
			k.bad = fmt.Errorf("key %d reads %d (found=%v, err=%v), want %d", key, v, found, err, c.expect(key))
		}
	}
}

// runClients wakes every client and runs until all of them finish. The obs
// plane and the failure detector never quiesce, so the engine only returns
// when the last client stops it; every client op ends, if not in success
// then in an error once its retry budget is spent.
func (k *kv) runClients() bool {
	k.done = 0
	k.gen++
	for _, c := range k.clients {
		k.e.Wake(c.proc)
	}
	k.e.Run()
	return k.done == len(k.clients)
}

func (k *kv) round(tr *tracer, parent int32) []opResult {
	k.tr, k.parent = tr, parent
	for _, c := range k.clients {
		c.res = c.res[:0]
	}
	k.runClients()
	out := make([]opResult, 0, kvClients*kvOpsPerClient)
	for _, c := range k.clients {
		out = append(out, c.res...)
		// Ops of a client that did not finish, were the engine ever to run
		// dry, count as failed.
		for i := len(c.res); i < kvOpsPerClient; i++ {
			out = append(out, opResult{})
		}
	}
	return out
}

func (k *kv) snapshot() metrics.Snapshot { return k.e.Metrics().Snapshot() }
func (k *kv) now() sim.Time              { return k.e.Now() }
func (k *kv) close()                     { k.e.Close() }

func (k *kv) checks() []check {
	k.readback, k.bad = true, nil
	readErr := errors.New("read-back did not finish")
	if k.runClients() {
		readErr = k.bad
	}
	k.readback = false
	var shedErr error
	if n := k.e.Metrics().Counter("kv.cluster.shed").Value(); n != 0 {
		shedErr = fmt.Errorf("%d writes shed", n)
	}
	return []check{
		{"kv.readback", readErr},
		{"kv.shed", shedErr},
		{"cache.invariants", cacheInvariants([]*core.System{k.s})},
	}
}

// ---------------------------------------------------------------------------
// mesh: read-mostly publishing on the 256-core mesh

const (
	meshK            = 8
	meshReadDeg      = 4
	meshIncsPerRound = 8
	meshWriteGap     = 2600
	meshReadGap      = 1900
)

// mesh runs the publishing workload of expt/coherence.go on a booted
// Mesh(8) with directory coherence, after the monitors have parked: every
// socket's writer RMW-increments its own line, and every socket's reader
// Loads the lines of the next meshReadDeg sockets in between. Every line thus
// has the same number of readers at the same distances; the seed draws the
// gaps between accesses, and with them the interleavings.
type mesh struct {
	e     *sim.Engine
	s     *core.System
	lines []memory.Addr
	wrng  []*sim.RNG
	rrng  []*sim.RNG
	incs  []uint64 // RMW increments issued per line
	opID  int64
}

func buildMesh(seed uint64, tr *tracer) (bench, bootTimes) {
	eng, bt := bootSerial(seed, topo.Mesh(meshK), core.Options{Coherence: cache.Directory}, tr)
	s := eng.serial
	ns := s.Mach.NSockets
	m := &mesh{e: s.Eng, s: s, incs: make([]uint64, ns)}
	for w := 0; w < ns; w++ {
		m.lines = append(m.lines, s.Mem.AllocLines(1, topo.SocketID(w)).LineAt(0))
		m.wrng = append(m.wrng, sim.NewRNG(seed^uint64(2*w+1)*0x9e37_79b9_7f4a_7c15))
		m.rrng = append(m.rrng, sim.NewRNG(seed^uint64(2*w+2)*0x9e37_79b9_7f4a_7c15))
	}
	return m, bt
}

func (m *mesh) round(tr *tracer, parent int32) []opResult {
	ns := len(m.lines)
	cps := m.s.Mach.CoresPerSocket
	wres := make([][]opResult, ns)
	rres := make([][]opResult, ns)
	for w := 0; w < ns; w++ {
		w := w
		wc := topo.CoreID(w * cps)
		m.e.Spawn(fmt.Sprintf("pubw%d", w), func(p *sim.Proc) {
			for i := 0; i < meshIncsPerRound; i++ {
				wres[w] = append(wres[w], m.access(p, tr, parent, "cache.rmw", wc, m.lines[w]))
				m.incs[w]++
				p.Sleep(m.wrng[w].Jitter(meshWriteGap, 0.25))
			}
		})
		m.e.Spawn(fmt.Sprintf("pubr%d", w), func(p *sim.Proc) {
			for i := 0; i < meshIncsPerRound; i++ {
				for d := 1; d <= meshReadDeg; d++ {
					rres[w] = append(rres[w], m.access(p, tr, parent, "cache.load", wc+1, m.lines[(w+d)%ns]))
				}
				p.Sleep(m.rrng[w].Jitter(meshReadGap, 0.25))
			}
		})
	}
	m.e.Run()
	var out []opResult
	for w := 0; w < ns; w++ {
		out = append(append(out, wres[w]...), rres[w]...)
	}
	return out
}

// access performs one RMW increment or Load inside its span.
func (m *mesh) access(p *sim.Proc, tr *tracer, parent int32, name string, c topo.CoreID, a memory.Addr) opResult {
	op := m.opID
	m.opID++
	t0 := p.Now()
	id := tr.begin(name, parent, op, t0)
	if name == "cache.rmw" {
		m.s.Cache.RMW(p, c, a, func(v uint64) uint64 { return v + 1 })
	} else {
		m.s.Cache.Load(p, c, a)
	}
	tr.end(id, p.Now())
	return opResult{p.Now() - t0, true}
}

func (m *mesh) snapshot() metrics.Snapshot { return m.e.Metrics().Snapshot() }
func (m *mesh) now() sim.Time              { return m.e.Now() }
func (m *mesh) close()                     { m.e.Close() }

func (m *mesh) checks() []check {
	var sumErr error
	m.e.Spawn("pubcheck", func(p *sim.Proc) {
		for w, a := range m.lines {
			if v := m.s.Cache.Load(p, 0, a); v != m.incs[w] && sumErr == nil {
				sumErr = fmt.Errorf("line of socket %d holds %d, want %d", w, v, m.incs[w])
			}
		}
	})
	m.e.Run()
	return []check{
		{"mesh.sums", sumErr},
		{"cache.invariants", cacheInvariants([]*core.System{m.s})},
	}
}
