// Command perfbench is the repository benchmark. It boots the simulated
// multikernel through its public packages, drives one workload for a fixed
// host time, checks the outputs, and prints every metric by name with its
// unit; the last line of standard output is the result as one JSON object.
//
//	perfbench --workload agree --seed 1 --seconds 20 --trace 0
//	perfbench attribute <cpu.pprof>
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, from a run that records spans and a CPU profile under
// .bench_build/perfbench-out/. README.md defines every metric and workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"multikernel/internal/metrics"
)

const (
	// pinnedProcs is the GOMAXPROCS every run uses: the serial engine's
	// throughput moves by about a quarter between 1 and 2.
	pinnedProcs = 2
	// defaultSeed is the seed gain claims are developed on; heldOutSeed is
	// the one they must also hold on.
	defaultSeed = 1
	heldOutSeed = 7919
	outDir      = ".bench_build/perfbench-out"
	// rateChunk is the CPU time of the consecutive rounds one sample of
	// ops_per_cpu_s spans; the metric is the median of those samples.
	rateChunk = time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "attribute" {
		os.Exit(attribute(os.Args[2:]))
	}
	name := flag.String("workload", "agree", "workload: agree, kv, mesh or agree-par")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 20, "host seconds the measured phase lasts at least")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run that reports the per-layer metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload=%q trace=%d seconds=%g\n", *name, *traceFlag, *seconds)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(pinnedProcs)
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

// metric is one named, united value of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is everything one run measured.
type report struct {
	workload string
	seed     uint64
	traced   bool

	attempted, failed int
	checks            []check
	rounds            int
	windowOps         int
	measuredOps       int
	rateSamples       int
	tail              tailPick

	endToEnd []metric
	perLayer []metric
}

func (r *report) correct() bool { return r.failed == 0 }

// run performs one benchmark run: setups, a warm-up round, the model window
// and the rest of the measured phase, then the correctness checks.
func run(w *workload, seed uint64, seconds time.Duration, traced bool) (*report, error) {
	rep := &report{workload: w.name, seed: seed, traced: traced}
	tr := newTracer()

	// Set up several times for a steady setup_s, in process CPU time like
	// ops_per_cpu_s; the first system also
	// replays the start of the workload at GOMAXPROCS 1 for the determinism
	// check, and only the last one runs the workload.
	var setupS []float64
	var boots []bootTimes
	var b bench
	var replayFP uint64
	for i := 0; i < w.setups; i++ {
		tr.on.Store(traced && i == w.setups-1)
		runtime.GC() // collect the previous system here, not inside this set-up
		c0 := cpuTime()
		nb, bt := w.build(seed, tr)
		setupS = append(setupS, (cpuTime() - c0).Seconds())
		boots = append(boots, bt)
		tr.on.Store(false)
		if i == 0 {
			prev := runtime.GOMAXPROCS(1)
			r0 := nb.round(tr, -1)
			r1 := nb.round(tr, -1)
			replayFP = fingerprint(append(r0, r1...), nb.snapshot())
			runtime.GOMAXPROCS(prev)
		}
		if i < w.setups-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	defer b.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	var opsRun, opsFailed int // every op of the main run
	count := func(ops []opResult) {
		opsRun += len(ops)
		for _, o := range ops {
			if !o.ok {
				opsFailed++
			}
		}
	}
	// measured is the host wall time spent inside timed rounds, which ends
	// the run; cpu is the process CPU time spent there, which the rates are
	// taken over.
	var measured, cpu time.Duration
	var rates []float64 // ops per CPU second of each rateChunk
	var chunkOps int
	var chunkCPU time.Duration
	timed := func(r int) []opResult {
		parent := tr.begin("round", -1, int64(r), b.now())
		t0, c0 := time.Now(), cpuTime()
		ops := b.round(tr, parent)
		dc := cpuTime() - c0
		measured += time.Since(t0)
		cpu += dc
		tr.end(parent, b.now())
		count(ops)
		chunkOps += len(ops)
		chunkCPU += dc
		if chunkCPU >= rateChunk {
			rates = append(rates, float64(chunkOps)/chunkCPU.Seconds())
			chunkOps, chunkCPU = 0, 0
		}
		return ops
	}

	warm := b.round(tr, -1)
	count(warm)
	win := window{from: b.snapshot()}
	tr.on.Store(traced)
	var winOps []opResult
	var mainFP uint64
	for r := 1; r <= w.window; r++ {
		ops := timed(r)
		winOps = append(winOps, ops...)
		if r == 1 {
			mainFP = fingerprint(append(append([]opResult(nil), warm...), ops...), b.snapshot())
		}
	}
	tr.on.Store(false)
	winCPU := cpu
	win.to = b.snapshot()
	win.ops = float64(len(winOps))

	// The rest of the measured phase runs without spans: a reference stretch
	// of a quarter of the run, whose rate the tracing overhead is taken
	// against, then more rounds until the host time is spent. In the traced
	// run those rounds run under the CPU profiler, for a quarter of the run
	// at least.
	r := w.window + 1
	phase := func(done func() bool) (ops int, wall, c time.Duration) {
		ops0, t0, c0 := opsRun, measured, cpu
		for ; !done(); r++ {
			timed(r)
		}
		return opsRun - ops0, measured - t0, cpu - c0
	}
	winTime := measured
	refOps, refTime, refCPU := phase(func() bool { return measured-winTime >= seconds/4 })
	refEvents := float64(b.snapshot().Counters[eventsCounter] - win.to.Counters[eventsCounter])
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	gc0 := gcCPU()
	profStart := measured
	phase(func() bool { return measured >= seconds && (!traced || measured-profStart >= seconds/4) })
	gc1 := gcCPU()
	if traced {
		pprof.StopCPUProfile()
	}
	rep.rounds = r - 1
	rep.measuredOps = opsRun - len(warm)
	rep.windowOps = len(winOps)
	if len(rates) == 0 { // a run shorter than one chunk
		rates = append(rates, float64(rep.measuredOps)/cpu.Seconds())
	}
	rep.rateSamples = len(rates)

	rep.checks = b.checks()
	var detErr error
	if replayFP != mainFP {
		detErr = fmt.Errorf("model fingerprint %#x at GOMAXPROCS 1, %#x at %d", replayFP, mainFP, pinnedProcs)
	}
	rep.checks = append(rep.checks, check{"determinism", detErr})
	rep.attempted = opsRun + len(rep.checks)
	rep.failed = opsFailed
	for _, c := range rep.checks {
		if c.err != nil {
			rep.failed++
		}
	}

	cy := cycles(winOps)
	rep.tail = tail(cy)
	rep.endToEnd = []metric{
		{"ops_per_cpu_s", "1/s", median(rates)},
		{"setup_s", "s", median(setupS)},
		{"heap_live_mb", "MB", heapMB},
		{"sim_cycles_p50", "cycles", percentile(cy, 0.5)},
		{"sim_cycles_tail", "cycles", rep.tail.value},
		{"ok_ratio", "ratio", 1 - float64(rep.failed)/float64(rep.attempted)},
	}
	if !traced {
		return rep, nil
	}

	shares, err := selfShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := writeArtifacts(w.name, seed, tr, prof.Bytes()); err != nil {
		return nil, err
	}
	tracedRate := float64(len(winOps)) / winCPU.Seconds()
	untracedRate := float64(refOps) / refCPU.Seconds()
	rep.perLayer = perLayerMetrics(win, tr, boots, rep.tail, shares, gc1[0]-gc0[0], gc1[1]-gc0[1],
		float64(refCPU.Nanoseconds())/refEvents, float64(refOps)/refTime.Seconds(), tracedRate/untracedRate)
	return rep, nil
}

// perLayerMetrics assembles the per-layer table of a traced run. Counts come
// from the registry over the model window and repeat exactly. *_host_*
// values and host.wall_ops_per_s are wall time; sim.host_ns_per_event is
// process CPU time, like ops_per_cpu_s.
func perLayerMetrics(win window, tr *tracer, boots []bootTimes, tp tailPick, shares map[string]float64,
	gcCPU, totalCPU, nsPerEvent, wallRate, traceRatio float64) []metric {
	unmapCy, _ := tr.durations("monitor.unmap")
	revokeCy, _ := tr.durations("monitor.revoke")
	var monHost []float64
	for _, n := range []string{"monitor.unmap", "monitor.retype", "monitor.revoke"} {
		_, h := tr.durations(n)
		monHost = append(monHost, h...)
	}
	sort.Float64s(monHost)
	rmwCy, rmwHost := tr.durations("cache.rmw")
	loadCy, loadHost := tr.durations("cache.load")
	getCy, getHost := tr.durations("apps.get")
	putCy, putHost := tr.durations("apps.put")

	var build, drain []float64
	for _, bt := range boots {
		build = append(build, bt.build.Seconds())
		drain = append(drain, bt.drain.Seconds())
	}
	gcShare := 0.0
	if totalCPU > 0 {
		gcShare = gcCPU / totalCPU
	}
	ms := []metric{
		{"sim.events_per_op", "events/op", win.perOp(eventsCounter)},
		{"sim.proc_wakes_per_op", "wakes/op", win.perOp("sim.proc_wakes")},
		{"sim.heap_max_depth", "events", float64(win.to.Gauges["sim.heap_max_depth"])},
		{"sim.host_ns_per_event", "ns", nsPerEvent},
		{"sim.window_ops", "count", win.ops},
		{"sim.tail_pct", "pct", tp.pct},
		{"sim.tail_beyond", "count", float64(tp.beyond)},
		{"core.boot_build_s", "s", median(build)},
		{"core.boot_drain_s", "s", median(drain)},
		{"core.boot_drain_events", "events", float64(boots[len(boots)-1].drainEvents)},
		{"monitor.unmap_cycles_p50", "cycles", percentile(unmapCy, 0.5)},
		{"monitor.revoke_cycles_p50", "cycles", percentile(revokeCy, 0.5)},
		{"monitor.op_host_ms_p50", "ms", percentile(monHost, 0.5) / 1e6},
		{"monitor.msgs_per_op", "msgs/op", win.perOp("monitor.handled")},
		{"monitor.events_per_msg", "events/msg", win.ratio(eventsCounter, "monitor.handled")},
		{"monitor.wakeups_per_op", "wakeups/op", win.perOp("monitor.wakeups")},
		{"monitor.aborts", "count", win.count("monitor.aborts")},
		{"urpc.sent_per_op", "msgs/op", win.perOp("urpc.sent")},
		{"urpc.notifies_per_op", "notifies/op", win.perOp("urpc.notifies")},
		{"urpc.full_stalls_per_op", "stalls/op", win.perOp("urpc.full_stalls")},
		{"urpc.bulk_lines_per_op", "lines/op", win.perOp("urpc.bulk_lines")},
		{"urpc.retries", "count", win.count("urpc.retries")},
		{"urpc.timeouts", "count", win.count("urpc.timeouts")},
		{"cache.hits_per_op", "hits/op", win.perOp("cache.hits")},
		{"cache.misses_per_op", "misses/op", win.perOp("cache.misses")},
		{"cache.remote_fills_per_op", "fills/op", win.perOp("cache.remote_fills")},
		{"cache.invalidations_per_op", "invals/op", win.perOp("cache.invalidations")},
		{"cache.probe_fanout_mean", "cores", win.histMean("cache.probe_fanout")},
		{"cache.fill_cycles_mean", "cycles", win.histMean("cache.fill_cycles")},
		{"cache.rmw_host_ns_p50", "ns", percentile(rmwHost, 0.5)},
		{"cache.load_host_ns_p50", "ns", percentile(loadHost, 0.5)},
		{"cache.rmw_cycles_p50", "cycles", percentile(rmwCy, 0.5)},
		{"cache.load_cycles_p50", "cycles", percentile(loadCy, 0.5)},
		{"interconnect.dwords_per_op", "dwords/op", win.perOp("interconnect.dwords_total")},
		{"apps.get_cycles_p50", "cycles", percentile(getCy, 0.5)},
		{"apps.get_cycles_tail", "cycles", tail(getCy).value},
		{"apps.put_cycles_p50", "cycles", percentile(putCy, 0.5)},
		{"apps.put_cycles_tail", "cycles", tail(putCy).value},
		{"apps.get_host_us_p50", "us", percentile(getHost, 0.5) / 1e3},
		{"apps.put_host_us_p50", "us", percentile(putHost, 0.5) / 1e3},
		{"apps.shed", "count", win.count("kv.cluster.shed")},
		{"obs.windows", "count", win.count("obs.windows")},
		{"obs.msgs_per_window", "msgs/window", win.ratio("obs.msgs", "obs.windows")},
		{"obs.late", "count", win.count("obs.late")},
		{"runtime.gc_cpu_share", "ratio", gcShare},
	}
	for _, l := range selfLayers {
		ms = append(ms, metric{"host.self_share." + l, "ratio", shares[l]})
	}
	return append(ms, metric{"host.wall_ops_per_s", "1/s", wallRate}, metric{"trace.ops_ratio", "ratio", traceRatio})
}

// fingerprint hashes the model's view of a run prefix: every op's latency and
// outcome and the whole metrics registry.
func fingerprint(ops []opResult, snap metrics.Snapshot) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%d %v\n", o.cycles, o.ok)
	}
	// json.Marshal sorts map keys, so equal snapshots encode equally.
	js, err := json.Marshal(snap)
	if err != nil {
		panic(err) // a Snapshot holds only maps of numbers
	}
	h.Write(js)
	return h.Sum64()
}

// gcCPU returns the runtime's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []rmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rmetrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeArtifacts stores the traced run's spans and CPU profile.
func writeArtifacts(workload string, seed uint64, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return err
	}
	return tr.write(base + ".spans.jsonl")
}

// environment describes where a result was measured.
func environment() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit)
}

// print writes the human-readable record, then the JSON result line.
func (r *report) print(f io.Writer) {
	fmt.Fprintf(f, "# perfbench workload=%s seed=%d trace=%v\n", r.workload, r.seed, r.traced)
	fmt.Fprintf(f, "# env %s\n", environment())
	fmt.Fprintf(f, "# ops attempted=%d failed=%d measured=%d window=%d rounds=%d rate_samples=%d\n",
		r.attempted, r.failed, r.measuredOps, r.windowOps, r.rounds, r.rateSamples)
	fmt.Fprintf(f, "# sim_cycles_tail is p%g with %d of %d window samples beyond it\n",
		r.tail.pct, r.tail.beyond, r.windowOps)
	for _, c := range r.checks {
		status := "ok"
		if c.err != nil {
			status = "FAILED: " + c.err.Error()
		}
		fmt.Fprintf(f, "# check %-17s %s\n", c.name, status)
	}
	shown := r.endToEnd
	if r.traced {
		fmt.Fprintf(f, "# artifacts %s/%s-seed%d.{pprof,spans.jsonl}\n", outDir, r.workload, r.seed)
		for _, m := range r.endToEnd {
			fmt.Fprintf(f, "# (traced) %-30s %14.6g %s\n", m.name, m.value, m.unit)
		}
		shown = r.perLayer
	}
	type jsMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jsMetric, len(shown))
	for _, m := range shown {
		fmt.Fprintf(f, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = jsMetric{v, m.unit}
	}
	js, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]jsMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		panic(err) // only numbers and strings
	}
	fmt.Fprintln(f, string(js))
}

// attribute prints the host.self_share table of a saved CPU profile.
func attribute(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench attribute <cpu.pprof>")
		return 2
	}
	prof, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	shares, err := selfShares(prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range selfLayers {
		fmt.Printf("host.self_share.%-14s %.4f\n", l, shares[l])
	}
	return 0
}
