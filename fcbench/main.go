// Command fcbench is the FastColumns benchmark: one process runs one
// named workload through the public API (Engine, Table, Server), checks
// every answer against the benchmark's own model of the data, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every workload reports the same metrics, so one workload can be held
// against another commit's run of it metric by metric. With -trace 0
// they are the end-to-end figures; with -trace 1 half of the workload's
// rounds record spans around each call into a layer, and they are the
// per-layer figures. Lines before the last one are comments (prefixed
// "# ") for people: run hygiene, the workload's own latencies, layer
// figures only that workload exercises, self times, tracing overhead
// and reference tables. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fastcolumns"
	"fastcolumns/internal/obs"
)

var workloads = map[string]func(*env) error{
	"aps-grid":     runAPSGrid,
	"serve-closed": runServeClosed,
	"ingest":       runIngest,
}

// spansDir is where a traced run writes its spans, inside the checkout.
const spansDir = ".bench_build/spans"

// env carries one run's settings and its accounting.
type env struct {
	name    string
	seed    uint64
	seconds int
	traced  bool
	coop    bool
	tr      *tracer

	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64

	mu       sync.Mutex
	metrics  map[string]metric
	problems []string
	peakHeap float64
	maxHeap  float64
	gcCycles uint64
	gcPause  time.Duration
	cpu      time.Duration // process CPU time (user + system) in the timed phase
	cpuUser  time.Duration // the user part of cpu
	marks    []cpuMark
	// before and after are the program's instruments around the timed
	// phase.
	before, after obs.RegistrySnapshot
}

// cpuMark is the process CPU time and the operations attempted at the
// end of one slice of the timed phase.
type cpuMark struct {
	cpu time.Duration
	ops int64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: aps-grid, serve-closed or ingest")
	seed := flag.Uint64("seed", 1, "seed for the generated data and queries")
	seconds := flag.Int("seconds", 20, "nominal run length; sets the fixed amount of work")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	coop := flag.Bool("coop", true, "serve-closed: Cooperative serving (false gives the reference figure)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fcbench: need -workload aps-grid|serve-closed|ingest, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	e := &env{
		name:    *name,
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		coop:    *coop,
		tr:      newTracer(),
		metrics: make(map[string]metric),
	}
	if err := run(e); err != nil {
		fmt.Fprintf(os.Stderr, "fcbench: %s: %v\n", e.name, err)
		os.Exit(1)
	}
	if e.traced {
		e.tr.printSelfTimes()
		if err := e.tr.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed)); err != nil {
			fmt.Fprintf(os.Stderr, "fcbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	e.printHygiene()
	for _, p := range e.problems {
		fmt.Fprintf(os.Stderr, "fcbench: wrong answer: %s\n", p)
	}
	out, err := json.Marshal(report{
		Correct:   e.wrong.Load() == 0,
		Attempted: e.attempted.Load(),
		Failed:    e.failed.Load(),
		Metrics:   e.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// rng returns a generator for one named input stream of this run; the
// same seed gives the same stream.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, stream))
}

// op accounts one operation: err is the program's error (a failed
// operation), bad a wrong answer found by a check.
func (e *env) op(err, bad error) {
	e.attempted.Add(1)
	if err != nil {
		e.failed.Add(1)
		e.note(fmt.Sprintf("failed: %v", err))
		return
	}
	if bad != nil {
		e.wrong.Add(1)
		e.note(bad.Error())
	}
}

func (e *env) note(msg string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.problems) < 10 {
		e.problems = append(e.problems, msg)
	}
}

// set records a metric for the result line. End-to-end metrics are set
// only in untraced runs and per-layer ones only in traced runs.
func (e *env) set(name, unit string, v float64, perLayer bool) {
	if perLayer != e.traced {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.metrics[name] = metric{Value: v, Unit: unit}
}

// timeSetup runs build repeats times and records the median of the set-up
// times build reports. Each instance but the last is closed before the
// next is built; the returned function closes the last, which the
// workload keeps.
func (e *env) timeSetup(repeats int, build func() (time.Duration, func(), error)) (func(), error) {
	var ds []float64
	closeLast := func() {}
	for i := 0; i < repeats; i++ {
		closeLast()
		goruntime.GC()
		d, closeFn, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, d.Seconds())
		closeLast = closeFn
	}
	goruntime.GC()
	e.set("setup_s", "s", median(ds), false)
	fmt.Printf("# setup_s samples %v\n", ds)
	return closeLast, nil
}

// setupTable times the program's set-up calls for one workload: a new
// engine, one table, and steps run in order. On error the engine is
// closed.
func setupTable(name string, steps func(*fastcolumns.Engine, *fastcolumns.Table) []func() error) (*fastcolumns.Engine, *fastcolumns.Table, time.Duration, error) {
	start := time.Now()
	eng := fastcolumns.New(fastcolumns.Config{})
	t, err := eng.CreateTable(name)
	if err == nil {
		for _, step := range steps(eng, t) {
			if err = step(); err != nil {
				break
			}
		}
	}
	d := time.Since(start)
	if err != nil {
		eng.Close()
		return nil, nil, 0, err
	}
	return eng, t, d, nil
}

// measure runs the timed phase, sampling heap in use every millisecond
// and counting GC cycles, pause time, allocation, CPU time and the
// program's instruments (read through observe) across it. peakHeap is
// the 99th percentile of the samples: the high-water mark of the GC
// cycle sawtooth, steadier from run to run than the single highest
// sample, which is printed beside it. It sets the metrics every
// workload reports from these: cpu_us_per_op and the common per-layer
// figures.
func (e *env) measure(observe func() obs.Snapshot, phase func() error) error {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	e.before = observe().Metrics
	ops0 := e.attempted.Load()
	user0, sys0 := cpuTime()
	e.marks = []cpuMark{{user0 + sys0, ops0}}
	stop := make(chan struct{})
	heap := make(chan []float64)
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var mb []float64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			mb = append(mb, float64(samples[0].Value.Uint64()+samples[1].Value.Uint64())/(1<<20))
			select {
			case <-stop:
				heap <- mb
				return
			case <-tick.C:
			}
		}
	}()
	err := phase()
	user1, sys1 := cpuTime()
	e.cpuUser, e.cpu = user1-user0, user1-user0+sys1-sys0
	ops := float64(e.attempted.Load() - ops0)
	e.mark()
	close(stop)
	mb := <-heap
	e.peakHeap, e.maxHeap = quantile(mb, 0.99), quantile(mb, 1)
	goruntime.ReadMemStats(&after)
	e.after = observe().Metrics
	e.gcCycles = uint64(after.NumGC - before.NumGC)
	e.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if err != nil {
		return err
	}
	if ops == 0 {
		return fmt.Errorf("timed phase attempted no operations")
	}

	// The median over slices keeps a slow stretch of the host, or of the
	// program, from setting the whole figure.
	var perOp []float64
	for i := 1; i < len(e.marks); i++ {
		if d := e.marks[i].ops - e.marks[i-1].ops; d > 0 {
			perOp = append(perOp, us(e.marks[i].cpu-e.marks[i-1].cpu)/float64(d))
		}
	}
	fmt.Printf("# cpu_us_per_op whole phase %.4f over %.0f ops; per slice p10 %.4f p50 %.4f p90 %.4f over %d slices\n",
		us(e.cpu)/ops, ops, quantile(perOp, 0.1), median(perOp), quantile(perOp, 0.9), len(perOp))
	e.set("cpu_us_per_op", "us", median(perOp), false)
	batches, batchNs := e.hist("engine.batch_ns")
	fmt.Printf("# engine batches %.0f exec_us_mean %.3f\n", batches, batchNs/batches/1e3)
	e.set("exec.batch_us", "us", batchNs/batches/1e3, true)
	decisions, decideNs := e.hist("optimizer.decide_ns")
	e.set("optimizer.decide_us", "us", decideNs/decisions/1e3, true)
	hits, misses := e.delta("runtime.arena.hits"), e.delta("runtime.arena.misses")
	e.set("runtime.arena.hit_ratio", "ratio", hits/(hits+misses), true)
	e.set("runtime.pool.steals_per_op", "count", e.delta("runtime.pool.steals")/ops, true)
	e.set("gc.alloc_kb_per_op", "KB", float64(after.TotalAlloc-before.TotalAlloc)/1024/ops, true)
	return nil
}

// mark ends a slice of the timed phase: a round, a cycle, or a second
// of the arrival schedule.
func (e *env) mark() {
	user, sys := cpuTime()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.marks = append(e.marks, cpuMark{user + sys, e.attempted.Load()})
}

// delta is how much one of the program's counters grew in the timed
// phase.
func (e *env) delta(name string) float64 {
	return float64(e.after.Counters[name] - e.before.Counters[name])
}

// hist is how many values one of the program's histograms recorded in
// the timed phase and their sum.
func (e *env) hist(name string) (count, sum float64) {
	a, b := e.after.Histograms[name], e.before.Histograms[name]
	return float64(a.Count - b.Count), float64(a.Sum - b.Sum)
}

// layer prints a per-layer figure of a layer only this workload
// exercises. The result line carries the metrics every workload
// measures; these are for people, in traced runs only.
func (e *env) layer(name, unit string, v float64) {
	if e.traced {
		fmt.Printf("# layer %s %.6g %s\n", name, v, unit)
	}
}

// spread prints the 10th, 50th and 90th percentiles of a workload's
// own latency or rate samples.
func spread(name string, xs []float64) {
	fmt.Printf("# %s p10 %.6g p50 %.6g p90 %.6g over %d samples\n", name, quantile(xs, 0.1), median(xs), quantile(xs, 0.9), len(xs))
}

func (e *env) printHygiene() {
	fmt.Printf("# workload %s seed %d seconds %d traced %v\n", e.name, e.seed, e.seconds, e.traced)
	fmt.Printf("# ops attempted %d failed %d wrong %d\n", e.attempted.Load(), e.failed.Load(), e.wrong.Load())
	fmt.Printf("# gc cycles %d pause_total_ms %.3f heap_mb p99 %.1f max %.1f\n", e.gcCycles, ms(e.gcPause), e.peakHeap, e.maxHeap)
	fmt.Printf("# GOMAXPROCS %d nproc %d, timed phase used %.3f s of CPU, %.3f s of it user time\n",
		goruntime.GOMAXPROCS(0), goruntime.NumCPU(), e.cpu.Seconds(), e.cpuUser.Seconds())
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile is the p-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// overhead prints how much tracing cost one end-to-end figure, from the
// traced and untraced halves of the same run, and returns it in percent.
func overhead(metric string, untraced, traced float64) float64 {
	pct := 100 * (traced - untraced) / untraced
	fmt.Printf("# overhead %s untraced %.4f traced %.4f overhead_pct %.2f\n", metric, untraced, traced, pct)
	return pct
}

// blocking prints the sum of self times along the blocking steps of one
// end-to-end figure next to the untraced figure; they should differ by
// no more than the tracing overhead.
func blocking(metric string, selfSum, untraced float64) {
	fmt.Printf("# blocking %s self_sum %.4f untraced %.4f diff_pct %.2f\n", metric, selfSum, untraced, 100*(selfSum-untraced)/untraced)
}
