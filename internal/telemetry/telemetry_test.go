package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"haspmv/internal/exec"
	"haspmv/internal/telemetry"
)

// withCollector runs f with a fresh active collector and restores the
// previous telemetry state afterwards, keeping tests independent.
func withCollector(t *testing.T, f func(c *telemetry.Collector)) {
	t.Helper()
	c := telemetry.NewCollector()
	prev := telemetry.Activate(c)
	defer telemetry.Activate(prev)
	f(c)
}

func TestRegistryIdempotentAndGated(t *testing.T) {
	c1 := telemetry.NewCounter("test_gated_counter")
	c2 := telemetry.NewCounter("test_gated_counter")
	if c1 != c2 {
		t.Fatal("NewCounter returned distinct counters for one name")
	}
	prev := telemetry.Activate(nil)
	defer telemetry.Activate(prev)

	// The registry is process-wide, so every assertion is a change from
	// the value the metric held before this run (go test -count=N).
	base := c1.Value()
	c1.Add(5)
	if c1.Value() != base {
		t.Fatal("disabled counter accumulated")
	}
	g := telemetry.NewGauge("test_gated_gauge")
	gBase := g.Value()
	g.Set(gBase + 42)
	if g.Value() != gBase {
		t.Fatal("disabled gauge stored")
	}
	h := telemetry.NewHistogram("test_gated_hist")
	hBase, sBase := h.Count(), h.SumSeconds()
	h.Observe(time.Millisecond)
	if h.Count() != hBase {
		t.Fatal("disabled histogram observed")
	}

	withCollector(t, func(*telemetry.Collector) {
		c1.Add(5)
		g.Set(gBase + 42)
		h.Observe(time.Millisecond)
	})
	if c1.Value() != base+5 || g.Value() != gBase+42 || h.Count() != hBase+1 {
		t.Fatalf("enabled updates lost: counter %d (base %d), gauge %d (base %d), hist %d (base %d)",
			c1.Value(), base, g.Value(), gBase, h.Count(), hBase)
	}
	if s := h.SumSeconds() - sBase; s < 0.0009 || s > 0.0011 {
		t.Fatalf("histogram sum grew by %v, want ~1ms", s)
	}
}

func TestPhasesAndSpansSnapshot(t *testing.T) {
	withCollector(t, func(c *telemetry.Collector) {
		c.RecordPhase(telemetry.PhaseReorder, 2*time.Millisecond)
		c.RecordPhase(telemetry.PhaseReorder, 3*time.Millisecond)
		c.RecordCoreSpan(3, time.Now().Add(-time.Millisecond), 100, 7, 1)
		c.RecordPartition(telemetry.PartitionRecord{
			Algorithm: "HASpMV", Rows: 10, Cols: 10, NNZ: 40,
			Proportion: 0.7,
			Regions:    []telemetry.RegionRecord{{Core: 0, Lo: 0, Hi: 40, Cost: 12}},
		})

		st := telemetry.Snapshot()
		if !st.Enabled {
			t.Fatal("snapshot should report enabled")
		}
		ph, ok := st.Phases["reorder"]
		if !ok || ph.Count != 2 || ph.Seconds < 0.004 {
			t.Fatalf("reorder phase: %+v (ok=%v)", ph, ok)
		}
		if len(st.Cores) != 1 || st.Cores[0].Core != 3 || st.Cores[0].NNZ != 100 ||
			st.Cores[0].Fragments != 7 || st.Cores[0].ExtraY != 1 {
			t.Fatalf("core stats: %+v", st.Cores)
		}
		if st.Spans != 1 || len(st.Partitions) != 1 {
			t.Fatalf("spans %d partitions %d", st.Spans, len(st.Partitions))
		}
		if _, err := json.Marshal(st); err != nil {
			t.Fatalf("snapshot not JSON-marshalable: %v", err)
		}
	})
	// After restore (disabled here), Snapshot still works and says so.
	if st := telemetry.Snapshot(); st.Enabled && telemetry.Active() == nil {
		t.Fatal("disabled snapshot claims enabled")
	}
}

func TestSpanCapDropsNotGrows(t *testing.T) {
	c := telemetry.NewCollector()
	for i := 0; i < telemetry.MaxSpans+10; i++ {
		c.RecordSpan(telemetry.Span{Name: "s", Core: 1})
	}
	st := c.Stats()
	if st.Spans != telemetry.MaxSpans {
		t.Fatalf("spans %d, want cap %d", st.Spans, telemetry.MaxSpans)
	}
	if st.SpansDropped != 10 {
		t.Fatalf("dropped %d, want 10", st.SpansDropped)
	}
}

func TestWriteTraceChromeFormat(t *testing.T) {
	withCollector(t, func(c *telemetry.Collector) {
		for core := 0; core < 4; core++ {
			c.RecordCoreSpan(core, time.Now().Add(-time.Millisecond), 10*core, core, 0)
		}
		c.RecordPartition(telemetry.PartitionRecord{Algorithm: "HASpMV", Metric: "cacheline"})

		var buf bytes.Buffer
		if err := telemetry.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("trace is not valid JSON: %.200s", buf.String())
		}
		var tf struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Tid  int     `json:"tid"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
			t.Fatal(err)
		}
		tids := map[int]bool{}
		instants := 0
		for _, ev := range tf.TraceEvents {
			switch ev.Ph {
			case "X":
				tids[ev.Tid] = true
			case "i":
				instants++
			}
		}
		if len(tids) != 4 {
			t.Fatalf("complete-span thread ids: %v, want one per core (4)", tids)
		}
		if instants != 1 {
			t.Fatalf("instant events %d, want 1 partition record", instants)
		}
	})
}

func TestWriteTraceDisabledErrors(t *testing.T) {
	prev := telemetry.Activate(nil)
	defer telemetry.Activate(prev)
	if err := telemetry.WriteTrace(io.Discard); err == nil {
		t.Fatal("trace export with telemetry disabled should error")
	}
}

func TestPrometheusRendering(t *testing.T) {
	cnt := telemetry.NewCounter("test_prom_counter")
	hist := telemetry.NewHistogram("test_prom_hist")
	histBase := hist.Count()
	withCollector(t, func(c *telemetry.Collector) {
		cnt.Add(3)
		c.RecordPhase(telemetry.PhaseCompute, time.Millisecond)
		c.RecordCoreSpan(2, time.Now().Add(-time.Millisecond), 50, 5, 0)
		hist.Observe(time.Microsecond)

		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"haspmv_test_prom_counter_total",
			"# TYPE haspmv_test_prom_counter_total counter",
			`haspmv_phase_seconds_total{phase="compute"}`,
			`haspmv_core_nnz_total{core="2"} 50`,
			"haspmv_test_prom_hist_seconds_bucket",
			fmt.Sprintf("haspmv_test_prom_hist_seconds_count %d", histBase+1),
			"haspmv_enabled 1",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in:\n%s", want, out)
			}
		}
		// Text-format sanity: every non-comment line is "name[{labels}] value".
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if fields := strings.Fields(line); len(fields) != 2 {
				t.Fatalf("unparseable exposition line %q", line)
			}
		}
	})
}

func TestServeMetricsVarsAndPprof(t *testing.T) {
	withCollector(t, func(c *telemetry.Collector) {
		c.RecordPhase(telemetry.PhasePrepare, time.Millisecond)
		srv, err := telemetry.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		get := func(path string) (int, string) {
			resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}

		if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "haspmv_enabled 1") {
			t.Fatalf("/metrics: %d %.120s", code, body)
		}
		if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, `"haspmv"`) {
			t.Fatalf("/debug/vars: %d %.120s", code, body)
		}
		if code, _ := get("/debug/pprof/cmdline"); code != 200 {
			t.Fatalf("/debug/pprof/cmdline: %d", code)
		}
	})
}

// TestConcurrentUpdatesRace exercises the whole collection surface from
// exec.Parallel workers; run with -race (CI does) to verify the lock-free
// counter paths and the span/partition mutexes.
func TestConcurrentUpdatesRace(t *testing.T) {
	cnt := telemetry.NewCounter("test_race_counter")
	hist := telemetry.NewHistogram("test_race_hist")
	withCollector(t, func(c *telemetry.Collector) {
		const fanout, rounds = 16, 20
		var snapshots sync.WaitGroup
		snapshots.Add(1)
		go func() {
			defer snapshots.Done()
			for i := 0; i < rounds; i++ {
				_ = telemetry.Snapshot()
				var buf bytes.Buffer
				_ = telemetry.WritePrometheus(&buf)
			}
		}()
		for round := 0; round < rounds; round++ {
			exec.Parallel(fanout, func(i int) {
				cnt.Add(1)
				hist.Observe(time.Duration(i) * time.Microsecond)
				c.RecordPhase(telemetry.PhaseCompute, time.Microsecond)
				c.RecordCoreSpan(i, time.Now(), i, 1, 0)
			})
		}
		snapshots.Wait()
		st := c.Stats()
		if got := st.Phases["compute"].Count; got != fanout*rounds {
			t.Fatalf("phase count %d, want %d", got, fanout*rounds)
		}
		var spans int64
		for _, cs := range st.Cores {
			spans += cs.Spans
		}
		if spans != fanout*rounds {
			t.Fatalf("core spans %d, want %d", spans, fanout*rounds)
		}
	})
}

// ValueHistogram gates on the enabled flag like every other registry
// metric, buckets by bit-length, and renders as a Prometheus histogram
// with integer le bounds.
func TestValueHistogram(t *testing.T) {
	h1 := telemetry.NewValueHistogram("test_value_hist")
	if h1 != telemetry.NewValueHistogram("test_value_hist") {
		t.Fatal("NewValueHistogram returned distinct histograms for one name")
	}
	prev := telemetry.Activate(nil)
	defer telemetry.Activate(prev)
	// Counts are changes from the pre-run values: the registry is
	// process-wide and survives go test -count=N.
	cBase, sBase := h1.Count(), h1.Sum()
	h1.Observe(8)
	if h1.Count() != cBase {
		t.Fatal("disabled value histogram observed")
	}
	withCollector(t, func(*telemetry.Collector) {
		for _, v := range []int64{0, 1, 2, 8, 8, 8, -3} {
			h1.Observe(v)
		}
		if h1.Count() != cBase+7 {
			t.Fatalf("count %d, want %d+7", h1.Count(), cBase)
		}
		if h1.Sum() != sBase+27 { // -3 clamps to 0
			t.Fatalf("sum %d, want %d+27", h1.Sum(), sBase)
		}
		if m, want := h1.Mean(), float64(sBase+27)/float64(cBase+7); math.Abs(m-want) > 0.005 {
			t.Fatalf("mean %v, want %v (27/7 on a fresh registry)", m, want)
		}
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"# TYPE haspmv_test_value_hist histogram",
			fmt.Sprintf(`haspmv_test_value_hist_bucket{le="+Inf"} %d`, cBase+7),
			fmt.Sprintf("haspmv_test_value_hist_sum %d", sBase+27),
			fmt.Sprintf("haspmv_test_value_hist_count %d", cBase+7),
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("prometheus output missing %q:\n%s", want, out)
			}
		}
	})
}

// RegisterHandlers mounts the same endpoints Serve binds, on a caller mux.
func TestRegisterHandlersOnCallerMux(t *testing.T) {
	withCollector(t, func(*telemetry.Collector) {
		mux := http.NewServeMux()
		telemetry.RegisterHandlers(mux)
		for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/cmdline"} {
			req, err := http.NewRequest("GET", "http://host"+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			rw := &recordingWriter{header: make(http.Header)}
			mux.ServeHTTP(rw, req)
			if rw.status != 0 && rw.status != http.StatusOK {
				t.Fatalf("%s: status %d", path, rw.status)
			}
			if rw.body.Len() == 0 {
				t.Fatalf("%s: empty body", path)
			}
		}
	})
}

type recordingWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *recordingWriter) Header() http.Header         { return w.header }
func (w *recordingWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *recordingWriter) WriteHeader(code int)        { w.status = code }

// TestHistogramExpositionSpecCompliance pins the Prometheus text-format
// contract that histogram_quantile depends on: every bucket bound is
// emitted (even at zero count), the series is cumulative and monotone,
// le bounds strictly increase, and the ladder terminates with a le="+Inf"
// bucket equal to _count.
func TestHistogramExpositionSpecCompliance(t *testing.T) {
	dur := telemetry.NewHistogram("test_spec_hist")
	val := telemetry.NewValueHistogram("test_spec_value_hist")
	// Expected counts are changes from the pre-run values: the registry
	// is process-wide and survives go test -count=N.
	durBase, valBase := dur.Count(), val.Count()
	withCollector(t, func(*telemetry.Collector) {
		var zeroBase int64
		var before bytes.Buffer
		if err := telemetry.WritePrometheus(&before); err != nil {
			t.Fatal(err)
		}
		const zeroBucket = `haspmv_test_spec_hist_seconds_bucket{le="0"} `
		for _, line := range strings.Split(before.String(), "\n") {
			if strings.HasPrefix(line, zeroBucket) {
				n, err := strconv.ParseInt(strings.TrimPrefix(line, zeroBucket), 10, 64)
				if err != nil {
					t.Fatalf("le=\"0\" bucket line %q: %v", line, err)
				}
				zeroBase = n
			}
		}

		for _, d := range []time.Duration{0, time.Nanosecond, time.Microsecond, time.Millisecond, 3 * time.Second, time.Hour} {
			dur.Observe(d)
		}
		for _, v := range []int64{0, 1, 7, 4096} {
			val.Observe(v)
		}
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()

		checkLadder := func(name string, wantBuckets int, wantCount int64) {
			t.Helper()
			if !strings.Contains(out, "# HELP "+name+" ") {
				t.Fatalf("%s: missing HELP line", name)
			}
			if !strings.Contains(out, "# TYPE "+name+" histogram") {
				t.Fatalf("%s: missing TYPE histogram line", name)
			}
			var les []float64
			var cums []int64
			for _, line := range strings.Split(out, "\n") {
				if !strings.HasPrefix(line, name+"_bucket{le=\"") {
					continue
				}
				rest := strings.TrimPrefix(line, name+"_bucket{le=\"")
				end := strings.Index(rest, "\"}")
				if end < 0 {
					t.Fatalf("%s: malformed bucket line %q", name, line)
				}
				leStr, cntStr := rest[:end], strings.TrimSpace(rest[end+2:])
				cnt, err := strconv.ParseInt(cntStr, 10, 64)
				if err != nil {
					t.Fatalf("%s: bucket count %q: %v", name, cntStr, err)
				}
				le := math.Inf(1)
				if leStr != "+Inf" {
					if le, err = strconv.ParseFloat(leStr, 64); err != nil {
						t.Fatalf("%s: le %q: %v", name, leStr, err)
					}
				}
				les = append(les, le)
				cums = append(cums, cnt)
			}
			if len(les) != wantBuckets {
				t.Fatalf("%s: %d bucket lines, want %d (all bounds emitted)", name, len(les), wantBuckets)
			}
			for i := 1; i < len(les); i++ {
				if les[i] <= les[i-1] {
					t.Fatalf("%s: le bounds not strictly increasing at %d: %v <= %v", name, i, les[i], les[i-1])
				}
				if cums[i] < cums[i-1] {
					t.Fatalf("%s: cumulative counts decreased at %d: %d < %d", name, i, cums[i], cums[i-1])
				}
			}
			if !math.IsInf(les[len(les)-1], 1) {
				t.Fatalf("%s: last bucket le is %v, want +Inf", name, les[len(les)-1])
			}
			if cums[len(cums)-1] != wantCount {
				t.Fatalf("%s: +Inf bucket %d, want _count %d", name, cums[len(cums)-1], wantCount)
			}
			if !strings.Contains(out, fmt.Sprintf("%s_count %d", name, wantCount)) {
				t.Fatalf("%s: missing _count %d", name, wantCount)
			}
		}
		// 34 power-of-two duration bounds plus +Inf; 32 value bounds plus +Inf.
		checkLadder("haspmv_test_spec_hist_seconds", 35, durBase+6)
		checkLadder("haspmv_test_spec_value_hist", 33, valBase+4)

		// The zero-duration bucket must carry the le="0" bound so a zero
		// observation lands in a finite bucket.
		if !strings.Contains(out, fmt.Sprintf(`haspmv_test_spec_hist_seconds_bucket{le="0"} %d`, zeroBase+1)) {
			t.Fatalf("zero-duration observation not in le=\"0\" bucket:\n%s", out)
		}
	})
}
