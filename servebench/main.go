// Command servebench is the repository's benchmark: one served multiply
// measured end to end on four workloads, with a separate traced run that
// breaks it into per-layer numbers. See README.md for the workloads, the
// metrics and how to read them.
//
//	servebench --workload serve-large --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

var workloadNames = []string{"solve-mix", "serve-large", "serve-small", "serve-sharded"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	out      string
	// wrap wraps every server handler of the measured deployments; the
	// benchmark's tests inject faults through it.
	wrap func(http.Handler) http.Handler
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run executes one benchmark run and returns the exit code: 0 for a
// correct run, 1 when any result was not bit-identical (the result line
// is still printed), 2 when the run could not complete (no result line).
func run(args []string, stdout, stderr io.Writer, wrap func(http.Handler) http.Handler) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: drives every matrix spec and x vector")
	seconds := fs.Float64("seconds", 30, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	quick := fs.Bool("quick", false, "toy input sizes (the benchmark's own tests)")
	out := fs.String("out", filepath.Join(".bench_build", "servebench"), "directory for the store files of the run and the trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizes, out: *out, wrap: wrap}
	if *quick {
		o.sz = quickSizes
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	work, err := os.MkdirTemp(o.out, fmt.Sprintf("%s-seed%d-", o.workload, o.seed))
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	res, err := runWorkload(o, work, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

func (m metrics) set(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metrics   `json:"metrics"`
	steal     []float64 // host steal share of each measured phase
}

// runWorkload builds the workload's inputs from the seed, runs it and
// returns the result line.
func runWorkload(o options, work string, stdout io.Writer) (*result, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: metrics{}}
	var err error
	if o.trace {
		err = tracedRun(o, work, dur, res, stdout)
	} else if o.workload == "solve-mix" {
		err = solveRun(o, dur, res)
	} else {
		err = serveRun(o, work, dur, res)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	printMetrics(stdout, o, res)
	return res, nil
}

func (r *result) add(st loadStats) {
	r.Attempted += st.Attempted
	r.Failed += st.Failed
	r.Correct = r.Correct && st.Mismatched == 0
	r.steal = append(r.steal, st.Steal)
}

func printMetrics(w io.Writer, o options, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%v: %d attempted, %d failed, correct=%v\n",
		o.workload, o.seed, o.trace, r.Attempted, r.Failed, r.Correct)
	for _, s := range r.steal {
		if s >= 0 {
			fmt.Fprintf(w, "# host steal during a measured phase: %.1f%% of CPU time\n", 100*s)
		}
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// heapMB forces a GC and returns the heap in use, in MB. The second GC
// empties the sync.Pool victim caches the first one leaves behind.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// remoteSolveSteps is the length of the remote solver loop solve_s
// prices on the serve workloads.
const remoteSolveSteps = 16

// setEndToEnd fills the end-to-end metrics of the serve workloads, where
// an operation is one served multiply. The measured phase is cut into
// windows of equal length and each metric is computed per window; see
// calmQuarter for which window value is reported. tail is the percentile
// reported as latency_p99_ms.
func setEndToEnd(m metrics, st loadStats, setups []float64, heap, tail float64, windows int) {
	span := st.Wall / time.Duration(windows)
	var rps, p50, p90, pTail, solve, gflops []float64
	for w := 0; w < windows; w++ {
		var in []sample
		for _, s := range st.Samples {
			if s.End >= time.Duration(w)*span && (s.End < time.Duration(w+1)*span || w == windows-1) {
				in = append(in, s)
			}
		}
		if len(in) == 0 {
			continue
		}
		var sum time.Duration
		var flops float64
		for _, s := range in {
			sum += s.Lat
			flops += s.Flops
		}
		l := lats(in)
		rps = append(rps, float64(len(in))/span.Seconds())
		p50 = append(p50, percentileMs(l, 0.50))
		p90 = append(p90, percentileMs(l, 0.90))
		pTail = append(pTail, percentileMs(l, tail))
		solve = append(solve, remoteSolveSteps*sum.Seconds()/float64(len(in)))
		gflops = append(gflops, flops/float64(span.Nanoseconds()))
	}
	m.set("setup_s", "s", median(setups))
	m.set("setup_heap_mb", "MB", heap)
	m.set("throughput_rps", "1/s", calmQuarter(rps, true))
	m.set("latency_p50_ms", "ms", calmQuarter(p50, false))
	m.set("latency_p90_ms", "ms", calmQuarter(p90, false))
	m.set("latency_p99_ms", "ms", calmQuarter(pTail, false))
	m.set("cpu_ms_per_op", "ms", float64(st.CPU.Nanoseconds())/1e6/float64(st.Attempted))
	m.set("solve_s", "s", calmQuarter(solve, false))
	m.set("spmv_gflops", "GFLOP/s", calmQuarter(gflops, true))
}

// calmQuarter reports the window value that a quarter of the windows
// beat: the first quartile of a time, the third of a rate. The
// benchmark shares its host, and contention from other tenants only
// ever adds time, in bursts of seconds. A median over windows still moves
// when most of a run is contended; the calmer quartile moves only when
// three quarters of it are, and a change to the code shows in every
// window alike.
func calmQuarter(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := 0.25
	if higherIsBetter {
		q = 0.75
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func solveRun(o options, dur time.Duration, res *result) error {
	s, err := newSolveMix(o.sz, o.seed)
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < o.sz.SetupReps; i++ {
		t0 := time.Now()
		if err := s.analyze(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	heap := heapMB()
	if err := s.reference(); err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	st, passes := s.run(nil, dur, 3)
	res.Correct = true
	res.add(st)
	if st.FirstProblem != "" {
		fmt.Fprintln(os.Stderr, "servebench: solve-mix:", st.FirstProblem)
	}
	setSolveMetrics(res.Metrics, st, passes, setups, heap)
	return nil
}

// warmup is the unmeasured closed-loop time before every measured serve
// phase: connections open, buffers grow, the store's pages are touched.
const warmup = 500 * time.Millisecond

func serveRun(o options, work string, dur time.Duration, res *result) error {
	w, err := newServeWorkload(o.workload, o.sz, o.seed, work)
	if err != nil {
		return err
	}
	var dep *deployment
	var setups []float64
	for i := 0; i < o.sz.SetupReps; i++ {
		d, el, err := w.setup(nil, nil, o.wrap)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, el.Seconds())
		if dep != nil {
			dep.stop()
		}
		dep = d
	}
	defer dep.stop()
	heap := heapMB()
	w.run(dep, nil, warmup, o.seed+1)
	st := w.run(dep, nil, dur, o.seed)
	res.Correct = true
	res.add(st)
	if st.FirstProblem != "" {
		fmt.Fprintf(os.Stderr, "servebench: %s: %d of %d failed; first: %s\n", o.workload, st.Failed, st.Attempted, st.FirstProblem)
	}
	setEndToEnd(res.Metrics, st, setups, heap, w.tail, w.windows)
	return nil
}

// goStats samples the Go runtime over a phase.
type goStats struct {
	ms0  runtime.MemStats
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startGoStats() *goStats {
	g := &goStats{stop: make(chan struct{})}
	runtime.ReadMemStats(&g.ms0)
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > g.peak {
				g.peak = v
			}
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

func (g *goStats) finish(m metrics, ops int64) {
	close(g.stop)
	g.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(max(ops, 1))
	gcs := float64(ms.NumGC - g.ms0.NumGC)
	m.set("go.alloc_kb_per_op", "KB", float64(ms.TotalAlloc-g.ms0.TotalAlloc)/1024/n)
	m.set("go.gc_per_100_ops", "count", 100*gcs/n)
	pause := 0.0
	if gcs > 0 {
		pause = float64(ms.PauseTotalNs-g.ms0.PauseTotalNs) / 1e6 / gcs
	}
	m.set("go.gc_pause_ms", "ms", pause)
	m.set("go.heap_peak_mb", "MB", float64(g.peak)/1e6)
}

// tracedRun measures the workload twice — an untraced half and a traced
// half of dur — then runs the layer probes. It prints the per-layer table
// and writes the spans as a Chrome trace under o.out.
func tracedRun(o options, work string, dur time.Duration, res *result, stdout io.Writer) error {
	half := dur / 2
	m := res.Metrics
	res.Correct = true
	var tr *tracer
	var perOpPlain, perOpTraced float64
	var rec *tracing.Recorder
	if o.workload == "solve-mix" {
		s, err := newSolveMix(o.sz, o.seed)
		if err != nil {
			return err
		}
		if err := s.analyze(); err != nil {
			return err
		}
		if err := s.reference(); err != nil {
			return fmt.Errorf("reference pass: %w", err)
		}
		g := startGoStats()
		plain, _ := s.run(nil, half, 2)
		g.finish(m, plain.Attempted)
		tr = newTracer()
		traced, _ := s.run(tr, half, 2)
		res.add(plain)
		res.add(traced)
		perOpPlain, perOpTraced = percentileMs(lats(plain.Samples), 0.5), percentileMs(lats(traced.Samples), 0.5)
	} else {
		w, err := newServeWorkload(o.workload, o.sz, o.seed, work)
		if err != nil {
			return err
		}
		dep, _, err := w.setup(nil, nil, o.wrap)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		w.run(dep, nil, warmup, o.seed+1)
		g := startGoStats()
		plain := w.run(dep, nil, half, o.seed)
		g.finish(m, plain.Attempted)
		dep.stop()

		tr = newTracer()
		rec = tracing.NewRecorder(tracing.RecorderOptions{Traces: 1 << 16})
		dep, _, err = w.setup(tr, rec, o.wrap)
		if err != nil {
			return fmt.Errorf("traced setup: %w", err)
		}
		w.run(dep, nil, warmup, o.seed+1)
		tr.reset()
		seq0 := rec.TraceCount()
		c0 := telemetry.Enable().Stats().Counters
		traced := w.run(dep, tr, half, o.seed)
		c1 := telemetry.Snapshot().Counters
		telemetry.Disable()
		dep.stop()
		res.add(plain)
		res.add(traced)
		perOpPlain = plain.Wall.Seconds() / float64(plain.Attempted)
		perOpTraced = traced.Wall.Seconds() / float64(traced.Attempted)
		snap := rec.Snapshot("")
		if rec.TraceCount()-seq0 > uint64(len(snap.Traces)) {
			fmt.Fprintf(stdout, "note: recorder kept %d of %d stage records\n", len(snap.Traces), rec.TraceCount()-seq0)
		}
		tr.joinRecorder(snap)
		lookups := float64(c1["serve_requests"] - c0["serve_requests"])
		misses := float64(c1["serve_prepares"] - c0["serve_prepares"])
		m.set("server.registry.hit_ratio", "ratio", 1-misses/max(lookups, 1))
		m.set("server.registry.restores", "count", float64(c1["serve_store_restores"]-c0["serve_store_restores"]))
		m.set("fleet.retries", "count", float64(c1["fleet_router_retries"]-c0["fleet_router_retries"]))
		if traced.FirstProblem != "" || plain.FirstProblem != "" {
			fmt.Fprintf(os.Stderr, "servebench: %s: first problem: %s%s\n", o.workload, plain.FirstProblem, traced.FirstProblem)
		}
	}
	setBatcherStats(m, rec, tr)
	m.set("trace.overhead_frac", "ratio", perOpTraced/perOpPlain-1)
	if o.workload == "solve-mix" { // no registry and no router on this path
		m.set("server.registry.hit_ratio", "ratio", 0)
		m.set("server.registry.restores", "count", 0)
		m.set("fleet.retries", "count", 0)
	}

	rows := tr.layers()
	fmt.Fprintf(stdout, "# per-layer spans of the traced half (%s, seed %d)\n", o.workload, o.seed)
	writeLayerTable(stdout, rows)
	base := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d", o.workload, o.seed))
	if err := tr.writeChrome(base + ".json"); err != nil {
		return err
	}
	f, err := os.Create(base + "-layers.txt")
	if err != nil {
		return err
	}
	writeLayerTable(f, rows)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace written to %s.json and %s-layers.txt\n", base, base)
	return layerProbes(o.sz, o.seed, work, m, stdout)
}

// setBatcherStats averages the batcher's stage records of the traced
// half. They are zero on solve-mix, which has no batcher.
func setBatcherStats(m metrics, rec *tracing.Recorder, tr *tracer) {
	var n, batch, queue, linger, compute, merge, coalesced, shed, expired float64
	if rec != nil {
		for _, t := range rec.Snapshot("").Traces {
			if t.Start.Before(tr.epoch) {
				continue
			}
			switch t.Status {
			case http.StatusTooManyRequests:
				shed++
				continue
			case http.StatusGatewayTimeout:
				expired++
				continue
			}
			if t.BatchNV == 0 {
				continue
			}
			n++
			batch += float64(t.BatchNV)
			queue += float64(t.QueueNs)
			linger += float64(t.LingerNs)
			compute += float64(t.ComputeNs)
			merge += float64(t.MergeNs)
			if t.BatchNV > 1 {
				coalesced++
			}
		}
	}
	n = max(n, 1)
	m.set("server.batcher.mean_batch", "count", batch/n)
	m.set("server.batcher.queue_us", "us", queue/n/1e3)
	m.set("server.batcher.linger_us", "us", linger/n/1e3)
	m.set("server.batcher.compute_us", "us", compute/n/1e3)
	m.set("server.batcher.merge_us", "us", merge/n/1e3)
	m.set("server.batcher.coalesced_share", "ratio", coalesced/n)
	m.set("server.batcher.shed", "count", shed)
	m.set("server.batcher.expired", "count", expired)
}
