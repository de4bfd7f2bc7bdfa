package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"haspmv"
	"haspmv/internal/core"
	"haspmv/internal/fleet"
	"haspmv/internal/fleet/shard"
	"haspmv/internal/server"
	"haspmv/internal/sparse"
	"haspmv/internal/store"
	"haspmv/internal/telemetry/tracing"
	"haspmv/solver"
)

// probeMatrix is one matrix the layer probes measure, with the tag its
// per-layer metric names carry.
type probeMatrix struct {
	tag   string
	name  string // registry name (served matrices only)
	scale int
	a     *sparse.CSR
	prep  *core.Prepared
	gbps  float64 // computed bytes over measured Compute time
}

func (p *probeMatrix) source(name string, scale int) (*sparse.CSR, error) {
	if name == p.name && scale == p.scale {
		return p.a, nil
	}
	return nil, fmt.Errorf("%w: %s@%d", server.ErrUnknownMatrix, name, scale)
}

// layerProbes measures every tagged per-layer metric by timing calls into
// each module's public entry points from outside the module. It is the
// same on every workload: only the seed changes its inputs.
func layerProbes(sz sizes, seed int64, dir string, out metrics, log io.Writer) error {
	ms := []*probeMatrix{
		{tag: "poisson", a: poisson2D(sz.PoissonGrid)},
		{tag: "zipf", a: zipfGraph(sz, seed)},
		{tag: "stencil", a: stencilBand(sz, seed)},
		{tag: "webbase", name: largeMatrix, scale: sz.LargeScale},
		{tag: "dawson5", name: hotTenant, scale: sz.SmallScale},
	}
	for _, p := range ms {
		if p.a == nil {
			var err error
			if p.a, err = representative(p.name, p.scale, seed); err != nil {
				return err
			}
		}
		if err := coreProbe(p, sz, seed, out); err != nil {
			return fmt.Errorf("core probe %s: %w", p.tag, err)
		}
	}
	if err := solverProbe(ms[0].a, seed, out); err != nil {
		return fmt.Errorf("solver probe: %w", err)
	}
	for _, p := range ms[3:] {
		if err := ladder(p, sz, seed, out); err != nil {
			return fmt.Errorf("ladder %s: %w", p.tag, err)
		}
		if err := storeProbe(p, sz, filepath.Join(dir, "probe-"+p.tag), out); err != nil {
			return fmt.Errorf("store probe %s: %w", p.tag, err)
		}
	}
	triad, err := triadProbe(sz == quickSizes, log)
	if err != nil {
		return err
	}
	out.set("host.triad_gbps", "GB/s", triad)
	for _, p := range ms {
		out.set("core.roofline_pct."+p.tag, "%", 100*p.gbps/triad)
	}
	return nil
}

// coreProbe prepares the matrix and times Prepared.Compute and
// ComputeTraced directly (the ladder's bottom rung), and reads the
// format choices off the prepared instance.
func coreProbe(p *probeMatrix, sz sizes, seed int64, out metrics) error {
	alg := core.New(core.Options{})
	var prep any
	prepareNs, err := timeReps(sz.SetupReps, sz.SetupReps, 0, func() error {
		var err error
		prep, err = alg.Prepare(machineModel(), p.a)
		return err
	})
	if err != nil {
		return err
	}
	p.prep = prep.(*core.Prepared)
	x := vectors(1, p.a.Cols, seed, "probe/"+p.tag)[0]
	y := make([]float64, p.a.Rows)
	p.prep.Compute(y, x)
	if err := nearSerial(p.a, x, y); err != nil {
		return err
	}
	computeNs, _ := timeReps(20, 5000, 200*time.Millisecond, func() error { p.prep.Compute(y, x); return nil })
	var bd tracing.ComputeBreakdown
	var crit, merge []float64
	timeReps(20, 5000, 200*time.Millisecond, func() error {
		bd.Reset()
		p.prep.ComputeTraced(y, x, &bd)
		crit = append(crit, float64(bd.MaxCoreNs))
		merge = append(merge, float64(bd.MergeNs))
		return nil
	})
	nnz := float64(p.a.NNZ())
	p.gbps = float64(bd.Bytes) / computeNs
	t := "." + p.tag
	out.set("core.prepare_ms"+t, "ms", prepareNs/1e6)
	out.set("core.compute_us"+t, "us", computeNs/1e3)
	out.set("core.kernel_crit_us"+t, "us", median(crit)/1e3)
	out.set("core.merge_us"+t, "us", median(merge)/1e3)
	out.set("core.bytes_per_nnz"+t, "computed_B/nnz", float64(bd.Bytes)/nnz)
	out.set("core.gbps"+t, "computed_GB/s", p.gbps)
	is := p.prep.IndexStats()
	for f, name := range []string{"int", "u32", "u16", "dia"} {
		out.set("kernel.nnz_share."+name+t, "ratio", float64(is.NNZByFormat[f])/nnz)
	}
	out.set("kernel.palette"+t, "count", float64(p.prep.ValueStats().PaletteLen))
	out.set("kernel.segsum_share"+t, "ratio", float64(p.prep.SegSumNNZ())/nnz)
	return nil
}

// solverProbe runs one Jacobi-CG solve and measures how much of its wall
// time is spent inside the operator's Apply.
func solverProbe(a *sparse.CSR, seed int64, out metrics) error {
	h, err := haspmv.Analyze(machineModel(), a, haspmv.Options{})
	if err != nil {
		return err
	}
	pre, err := solver.DiagonalPreconditioner(a)
	if err != nil {
		return err
	}
	b := vectors(1, a.Rows, seed, "cg/b")[0]
	var calls []time.Duration
	t0 := time.Now()
	st, err := solver.CG(timedOp{h: h, calls: &calls}, b, make([]float64, a.Rows),
		solver.Options{Tol: cgTol, Precondition: pre})
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	if !st.Converged {
		return fmt.Errorf("CG did not converge (residual %.3g)", st.Residual)
	}
	out.set("solver.iterations.poisson", "count", float64(st.Iterations))
	var apply time.Duration
	for _, c := range calls {
		apply += c
	}
	out.set("solver.apply_share.poisson", "ratio", apply.Seconds()/wall.Seconds())
	return nil
}

// ladder times one request at every rung from the kernel to the sharded
// router: Compute → Batcher.Submit → Server.ServeHTTP in process →
// loopback HTTP → router→1 worker → router→2 row-shards. Differences
// between adjacent rungs are the cost of the layer in between.
func ladder(p *probeMatrix, sz sizes, seed int64, out metrics) error {
	ctx := context.Background()
	x := vectors(1, p.a.Cols, seed, "ladder/"+p.tag)[0]
	ref := make([]float64, p.a.Rows)
	p.prep.Compute(ref, x)
	body, err := json.Marshal(multiplyRequest{Matrix: p.name, Scale: p.scale, X: x})
	if err != nil {
		return err
	}
	reps := func(f func() error) (float64, error) { return timeReps(sz.Reps, 2000, 300*time.Millisecond, f) }
	t := "." + p.tag

	// Rung 2: the batcher alone, with the server's default options.
	b := server.NewBatcher(p.prep, server.BatcherOptions{})
	y := make([]float64, p.a.Rows)
	submitNs, err := reps(func() error { _, err := b.Submit(ctx, y, x); return err })
	b.Close()
	if err != nil {
		return err
	}
	if !sameBits(y, ref) {
		return fmt.Errorf("Batcher.Submit result differs from Compute")
	}

	// Rung 3: the whole handler in process, no socket.
	w0 := newServer(p.source, "", 8, nil)
	defer w0.Drain(ctx)
	if err := w0.Preload(ctx, p.name, p.scale); err != nil {
		return err
	}
	var resp []byte
	serveNs, err := reps(func() error {
		rr := httptest.NewRecorder()
		w0.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("ServeHTTP status %d: %s", rr.Code, rr.Body.String())
		}
		resp = rr.Body.Bytes()
		return nil
	})
	if err != nil {
		return err
	}
	if err := checkBody(resp, ref); err != nil {
		return fmt.Errorf("ServeHTTP: %w", err)
	}

	// Rung 4: loopback HTTP to the same server.
	l0, err := listen(w0)
	if err != nil {
		return err
	}
	defer l0.stop()
	c := newClient(0, l0.Addr, nil)
	defer c.close()
	loopNs, err := reps(func() error { resp, err = c.post(body, ""); return err })
	if err != nil {
		return err
	}
	if err := checkBody(resp, ref); err != nil {
		return fmt.Errorf("loopback: %w", err)
	}
	encNs, _ := reps(func() error {
		_, err := json.Marshal(multiplyRequest{Matrix: p.name, Scale: p.scale, X: x})
		return err
	})
	decNs, err := reps(func() error { var r multiplyResponse; return json.Unmarshal(resp, &r) })
	if err != nil {
		return err
	}

	// Rungs 5 and 6: through the fleet router to one worker, then
	// scattered over two row-shards.
	w1 := newServer(p.source, "", 8, nil)
	defer w1.Drain(ctx)
	l1, err := listen(w1)
	if err != nil {
		return err
	}
	defer l1.stop()
	tp := dialMap(map[string]string{backendNames[0]: l0.Addr, backendNames[1]: l1.Addr})
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	key := server.Key(p.name, p.scale)
	r1, err := fleet.NewRouter(fleet.RouterOptions{Backends: func() []string { return backendNames[:1] },
		DefaultScale: p.scale, Client: hc})
	if err != nil {
		return err
	}
	rK, err := fleet.NewRouter(fleet.RouterOptions{Backends: func() []string { return backendNames },
		Shards: map[string]int{key: 2}, DefaultScale: p.scale, Client: hc})
	if err != nil {
		return err
	}
	lr1, err := listen(r1)
	if err != nil {
		return err
	}
	defer lr1.stop()
	lrK, err := listen(rK)
	if err != nil {
		return err
	}
	defer lrK.stop()
	c1, cK := newClient(0, lr1.Addr, nil), newClient(0, lrK.Addr, nil)
	defer c1.close()
	defer cK.close()
	router1Ns, err := reps(func() error { resp, err = c1.post(body, ""); return err })
	if err != nil {
		return err
	}
	if err := checkBody(resp, ref); err != nil {
		return fmt.Errorf("router→1: %w", err)
	}
	if resp, err = cK.post(body, ""); err != nil { // builds the shard entries
		return err
	}
	var gathered multiplyResponse
	if err := json.Unmarshal(resp, &gathered); err != nil {
		return err
	}
	if err := nearSerial(p.a, x, gathered.Y); err != nil {
		return fmt.Errorf("router→2 gather: %w", err)
	}
	routerKNs, err := reps(func() error { resp, err = cK.post(body, ""); return err })
	if err != nil {
		return err
	}
	if err := checkBody(resp, gathered.Y); err != nil {
		return fmt.Errorf("router→2 (loaded vs first gather): %w", err)
	}

	// The shard plan and each shard's own loopback rung.
	planURL := fmt.Sprintf("http://%s/v1/shardplan?matrix=%s&scale=%d&count=2", l0.Addr, p.name, p.scale)
	var plan struct{ Shards []shard.Desc }
	planNs, err := reps(func() error {
		r, err := c.hc.Get(planURL)
		if err != nil {
			return err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("shardplan status %d", r.StatusCode)
		}
		return json.NewDecoder(r.Body).Decode(&plan)
	})
	if err != nil {
		return err
	}
	var shardNs []float64
	for i, d := range plan.Shards {
		sb, err := json.Marshal(multiplyRequest{Matrix: p.name, Scale: p.scale, X: x[d.ColLo:d.ColHi],
			ShardIndex: i, ShardCount: len(plan.Shards)})
		if err != nil {
			return err
		}
		if _, err := c.post(sb, ""); err != nil { // builds the shard entry on this worker
			return err
		}
		ns, err := reps(func() error { _, err := c.post(sb, ""); return err })
		if err != nil {
			return err
		}
		shardNs = append(shardNs, ns)
	}
	slowest, sum := 0.0, 0.0
	for _, ns := range shardNs {
		slowest = max(slowest, ns)
		sum += ns
	}

	out.set("server.batcher.submit_us"+t, "us", submitNs/1e3)
	out.set("server.servehttp_us"+t, "us", serveNs/1e3)
	out.set("server.loopback_us"+t, "us", loopNs/1e3)
	out.set("server.handler_self_us"+t, "us", (serveNs-submitNs)/1e3)
	out.set("server.transport_self_us"+t, "us", (loopNs-serveNs)/1e3)
	out.set("client.encode_us"+t, "us", encNs/1e3)
	out.set("client.decode_us"+t, "us", decNs/1e3)
	out.set("server.req_kb"+t, "KB", float64(len(body))/1024)
	out.set("server.resp_kb"+t, "KB", float64(len(resp))/1024)
	out.set("fleet.router1_us"+t, "us", router1Ns/1e3)
	out.set("fleet.routerK_us"+t, "us", routerKNs/1e3)
	out.set("fleet.router_self_us"+t, "us", (routerKNs-slowest)/1e3)
	out.set("fleet.plan_ms"+t, "ms", planNs/1e6)
	out.set("fleet.shard_skew"+t, "ratio", slowest/(sum/float64(len(shardNs))))
	return nil
}

// checkBody decodes a multiply response and compares y bit for bit.
func checkBody(body []byte, ref []float64) error {
	var r multiplyResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if !sameBits(r.Y, ref) {
		return fmt.Errorf("y is not bit-identical to the reference")
	}
	return nil
}

// storeProbe times the prepared-matrix store and the registry on it:
// a resident hit, a cold restore, and the file loads behind it.
func storeProbe(p *probeMatrix, sz sizes, dir string, out metrics) error {
	ctx := context.Background()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	alg := core.New(core.Options{})
	opts := server.RegistryOptions{MaxEntries: 2, Source: p.source, StoreDir: dir}
	reg := server.NewRegistry(machineModel(), alg, opts)
	if _, err := reg.Get(ctx, p.name, p.scale); err != nil {
		reg.Close()
		return err
	}
	hitNs, err := timeReps(100, 100000, 100*time.Millisecond, func() error {
		_, err := reg.Get(ctx, p.name, p.scale)
		return err
	})
	reg.Close() // waits for the write-through
	if err != nil {
		return err
	}
	path := storeFile(dir, server.Key(p.name, p.scale))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	n := max(sz.Reps, 5)
	var restore, load, async, verify []float64
	for i := 0; i < n; i++ {
		r := server.NewRegistry(machineModel(), alg, opts)
		t0 := time.Now()
		e, err := r.Get(ctx, p.name, p.scale)
		restore = append(restore, float64(time.Since(t0).Nanoseconds()))
		fromStore := err == nil && e.FromStore
		r.Close()
		if err != nil {
			return err
		}
		if !fromStore {
			return fmt.Errorf("cold Get did not restore from %s", path)
		}

		t0 = time.Now()
		f, err := store.Load(path)
		load = append(load, float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			return err
		}
		f.Close()

		t0 = time.Now()
		f, err = store.LoadAsync(path)
		t1 := time.Now()
		if err != nil {
			return err
		}
		verr := f.Verified()
		async = append(async, float64(t1.Sub(t0).Nanoseconds()))
		verify = append(verify, float64(time.Since(t1).Nanoseconds()))
		f.Close()
		if verr != nil {
			return verr
		}
	}
	t := "." + p.tag
	out.set("server.registry.get_hit_us"+t, "us", hitNs/1e3)
	out.set("server.registry.restore_ms"+t, "ms", median(restore)/1e6)
	out.set("store.load_ms"+t, "ms", median(load)/1e6)
	out.set("store.load_async_ms"+t, "ms", median(async)/1e6)
	out.set("store.verify_ms"+t, "ms", median(verify)/1e6)
	out.set("store.file_mb"+t, "MB", float64(fi.Size())/1e6)
	return nil
}

// triadProbe measures host memory bandwidth with a parallel STREAM
// triad a = b + s·c over arrays whose total size is four times the
// last-level cache. Bytes are computed (24 per element: two loads, one
// store; write-allocate traffic is not counted).
func triadProbe(quick bool, log io.Writer) (float64, error) {
	llc, llcKnown := lastLevelCache()
	total := 4 * llc
	if quick {
		total = 24 << 20
	}
	n := total / 24
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	parallel := func(f func(lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				f(w*n/workers, (w+1)*n/workers)
			}(w)
		}
		wg.Wait()
	}
	parallel(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		parallel(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
		best = max(best, float64(24*n)/float64(time.Since(t0).Nanoseconds()))
	}
	if a[n/2] != 7 {
		return 0, fmt.Errorf("triad produced %g, want 7", a[n/2])
	}
	how := "read from sysfs"
	if !llcKnown {
		how = "not readable; assumed"
	}
	fmt.Fprintf(log, "host triad: %d workers, 3 arrays x %.1f MiB = %.1f MiB in total; last-level cache %.1f MiB (%s)%s; best of 5 passes %.2f GB/s (computed bytes, 24 B/element)\n",
		workers, float64(8*n)/(1<<20), float64(24*n)/(1<<20), float64(llc)/(1<<20), how,
		map[bool]string{true: " [quick mode: arrays below 4x LLC]", false: ""}[quick], best)
	a, b, c = nil, nil, nil
	debug.FreeOSMemory()
	return best, nil
}

// lastLevelCache returns the size in bytes of the highest-level CPU
// cache the kernel reports for CPU 0, or 32 MiB when it cannot be read.
func lastLevelCache() (int, bool) {
	best, bestLevel := 0, 0
	for i := 0; i < 8; i++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err1 := os.ReadFile(base + "level")
		sz, err2 := os.ReadFile(base + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.Atoi(s)
		if err == nil && level > bestLevel {
			best, bestLevel = v*mult, level
		}
	}
	if best == 0 {
		return 32 << 20, false
	}
	return best, true
}
