package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"multikernel/internal/cache"
	"multikernel/internal/caps"
	"multikernel/internal/core"
	"multikernel/internal/topo"
)

// checksPass fails the test unless every check passed.
func checksPass(t *testing.T, cs []check) {
	t.Helper()
	for _, c := range cs {
		if c.err != nil {
			t.Fatalf("check %s failed on a healthy run: %v", c.name, c.err)
		}
	}
}

// fired fails the test unless the named check failed.
func fired(t *testing.T, cs []check, name string) {
	t.Helper()
	for _, c := range cs {
		if c.name == name {
			if c.err == nil {
				t.Fatalf("check %s did not fire", name)
			}
			t.Logf("%s fired: %v", name, c.err)
			return
		}
	}
	t.Fatalf("no check named %s", name)
}

// runRounds runs rounds [from, to) and reports how many ops failed.
func runRounds(b bench, from, to int) (failed int) {
	for r := from; r < to; r++ {
		for _, o := range b.round(newTracer(), -1) {
			if !o.ok {
				failed++
			}
		}
	}
	return failed
}

func TestAgreeChecksFire(t *testing.T) {
	eng, _ := bootSerial(1, topo.AMD8x4(), core.Options{}, newTracer())
	a := newAgree(1, eng)
	defer a.close()
	if n := runRounds(a, 0, 2); n != 0 {
		t.Fatalf("%d ops failed on a healthy run", n)
	}
	checksPass(t, a.checks())
	if len(a.live) == 0 {
		t.Fatal("no committed retype to plant against")
	}

	// Expect a retype that never happened.
	a.live = append(a.live, a.next)
	fired(t, a.checks(), "caps.expected")
	a.live = a.live[:len(a.live)-1]

	// Give one core a page table over a range the others hold as a frame.
	cs := eng.serial.Net.Monitor(3).CS
	ref := cs.AddRoot(caps.Capability{Type: caps.PageTable, Level: 1, Base: a.live[0], Bytes: agreeBytes, Rights: caps.AllRights})
	fired(t, a.checks(), "caps.consistent")
	if err := cs.Delete(ref); err != nil {
		t.Fatal(err)
	}
	checksPass(t, a.checks())

	// Pre-type the next fresh range on every core: the round's first retype
	// is refused, and the op reports it.
	for c := 0; c < a.cores; c++ {
		eng.serial.Net.Monitor(topo.CoreID(c)).CS.AddRoot(caps.Capability{
			Type: caps.PageTable, Level: 1, Base: a.next, Bytes: agreeBytes, Rights: caps.AllRights,
		})
	}
	if runRounds(a, 2, 3) == 0 {
		t.Fatal("a retype over a conflicting range did not fail")
	}
}

func TestCacheCheckFires(t *testing.T) {
	if err := checkLine(1, cache.LineView{Holders: cache.OnlyCore(3), Owner: 3, Dirty: true}); err != nil {
		t.Fatalf("healthy line rejected: %v", err)
	}
	if checkLine(1, cache.LineView{Holders: cache.OnlyCore(3), Owner: 5}) == nil {
		t.Fatal("an owner without a copy passed")
	}
	if checkLine(1, cache.LineView{Holders: cache.OnlyCore(3), Owner: -1, Dirty: true}) == nil {
		t.Fatal("a dirty line without an owner passed")
	}
}

func TestKVChecksFire(t *testing.T) {
	b, _ := buildKV(1, newTracer())
	k := b.(*kv)
	defer k.close()
	if n := runRounds(k, 0, 2); n != 0 {
		t.Fatalf("%d ops failed on a healthy run", n)
	}
	checksPass(t, k.checks())

	// Expect a value the client never wrote.
	c := k.clients[2]
	old, had := c.acked[c.lo]
	c.acked[c.lo] = 12345
	fired(t, k.checks(), "kv.readback")
	if had {
		c.acked[c.lo] = old
	} else {
		delete(c.acked, c.lo)
	}
	checksPass(t, k.checks())

	// Fail-stop a server: with no spare to re-replicate onto, writes to its
	// shards are shed.
	k.cl.KillCore(kvServers[0])
	k.s.Net.FailStop(kvServers[0])
	if runRounds(k, 2, 4) == 0 {
		t.Fatal("no op failed with a server down")
	}
	fired(t, k.checks(), "kv.shed")
}

func TestMeshChecksFire(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 256-core mesh")
	}
	b, _ := buildMesh(1, newTracer())
	m := b.(*mesh)
	defer m.close()
	runRounds(m, 0, 1)
	checksPass(t, m.checks())
	m.incs[3]++
	fired(t, m.checks(), "mesh.sums")
}

// TestDeterminismAcrossProcs runs the start of a workload at GOMAXPROCS 1 and
// 2 and expects one fingerprint; another seed must give another.
func TestDeterminismAcrossProcs(t *testing.T) {
	for _, name := range []string{"kv", "agree-par"} {
		w := workloadByName(name)
		fp := func(seed uint64, procs int) uint64 {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b, _ := w.build(seed, newTracer())
			defer b.close()
			tr := newTracer()
			ops := append(b.round(tr, -1), b.round(tr, -1)...)
			return fingerprint(ops, b.snapshot())
		}
		a, b := fp(1, 1), fp(1, 2)
		if a != b {
			t.Errorf("%s: fingerprint %#x at GOMAXPROCS 1, %#x at 2", name, a, b)
		}
		if c := fp(2, 2); c == b {
			t.Errorf("%s: seeds 1 and 2 share fingerprint %#x", name, c)
		}
	}
}

// TestTracedRunMatchesBenchmarkJSON runs a short traced kv run and checks
// that it reports exactly the metrics BENCHMARK.json declares.
func TestTracedRunMatchesBenchmarkJSON(t *testing.T) {
	js, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &spec); err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	rep, err := run(workloadByName("kv"), 1, 2*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("%d of %d failed: %+v", rep.failed, rep.attempted, rep.checks)
	}
	same := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the run reports %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the run %s [%s]", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, rep.endToEnd)
	same("per_layer", spec.PerLayer, rep.perLayer)

	var sum float64
	for _, m := range rep.perLayer {
		if len(m.name) > 16 && m.name[:16] == "host.self_share." {
			sum += m.value
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares sum to %g", sum)
	}
	if _, err := os.Stat(filepath.Join(outDir, "kv-seed1.spans.jsonl")); err != nil {
		t.Error(err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"multikernel/internal/sim.(*Engine).dispatch":    "sim",
		"multikernel/internal/urpc.(*Channel).RecvAll":   "urpc",
		"multikernel/internal/memory.(*Memory).LoadWord": "other",
		"runtime.chanrecv":         "runtime_sched",
		"runtime.casgstatus":       "runtime_sched",
		"runtime.scanobject":       "runtime_gc",
		"runtime.gcDrain":          "runtime_gc",
		"runtime.mallocgc":         "other",
		"internal/runtime/maps.h2": "other",
		"main.(*tracer).begin":     "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{{99, 100, 0}, {100, 90, 10}, {999, 90, 99}, {1000, 99, 10}, {10000, 99.9, 10}} {
		got := tail(seq(c.n))
		if got.pct != c.pct || got.beyond != c.beyond {
			t.Errorf("tail of %d samples: p%g with %d beyond, want p%g with %d", c.n, got.pct, got.beyond, c.pct, c.beyond)
		}
	}
}
