package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"haspmv/internal/core"
	"haspmv/internal/fleet"
	"haspmv/internal/server"
	"haspmv/internal/sparse"
	"haspmv/internal/store"
	"haspmv/internal/telemetry/tracing"
)

// Load shape shared by every serve workload: a closed loop of two
// callers (the host has two CPUs), each holding one keep-alive
// connection and waiting for y before sending its next x.
const (
	clients  = 2
	patterns = 4 // distinct x vectors per matrix
	// smallCache is serve-small's registry capacity: fewer slots than
	// tenants, so cold tenants restore from the store and evict others.
	smallCache = 4
	// zipfS is the exponent of serve-small's tenant draw.
	zipfS = 1.1
)

// backendNames are the fleet router's backend labels for the two
// serve-sharded workers; a dialer maps them to the workers' loopback
// ports. The router hashes labels onto its ring, so fixed labels give
// the same shard placement on every run, and these were picked so that
// the two shards of webbase-1M@8 and of dawson5@64 land on different
// workers.
var backendNames = []string{"w200-a:80", "w200-b:80"}

// serveWorkload holds the inputs of one serve workload and builds its
// deployments.
type serveWorkload struct {
	dir      string // store directory, filled by the untimed pre-pass
	mats     map[string]*sparse.CSR
	tenants  [][]task // per tenant in Zipf rank order: its patterns
	sharded  bool
	capacity int
	zipf     bool
	tail     float64 // percentile reported as latency_p99_ms
	windows  int     // measured-phase windows the metrics are computed over
}

func newServeWorkload(name string, sz sizes, seed int64, dir string) (*serveWorkload, error) {
	w := &serveWorkload{dir: filepath.Join(dir, "store"), mats: map[string]*sparse.CSR{}, capacity: 8, tail: 0.90, windows: 3}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	names, scale := []string{largeMatrix}, sz.LargeScale
	switch name {
	case "serve-small":
		names, scale = smallTenants, sz.SmallScale
		w.capacity, w.zipf, w.tail, w.windows = smallCache, true, 0.99, 10
	case "serve-sharded":
		w.sharded = true
	}
	for _, n := range names {
		a, err := representative(n, scale, seed)
		if err != nil {
			return nil, err
		}
		w.mats[server.Key(n, scale)] = a
		ts := make([]task, patterns)
		for p, x := range vectors(patterns, a.Cols, seed, "x/"+n) {
			ts[p] = task{Matrix: n, Scale: scale, X: x, Flops: 2 * float64(a.NNZ())}
		}
		w.tenants = append(w.tenants, ts)
	}
	if err := w.prepass(); err != nil {
		return nil, fmt.Errorf("%s pre-pass: %w", name, err)
	}
	return w, nil
}

func (w *serveWorkload) source(name string, scale int) (*sparse.CSR, error) {
	if a, ok := w.mats[server.Key(name, scale)]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("%w: %s@%d", server.ErrUnknownMatrix, name, scale)
}

func newServer(src server.MatrixSource, storeDir string, capacity int, rec *tracing.Recorder) *server.Server {
	return server.New(server.Config{
		Machine:   machineModel(),
		Algorithm: core.New(core.Options{}),
		Recorder:  rec,
		Registry:  server.RegistryOptions{MaxEntries: capacity, Source: src, StoreDir: storeDir},
	})
}

// storeFile is the registry's store path for a key (the registry maps
// '/' in shard keys to '_').
func storeFile(dir, key string) string {
	return filepath.Join(dir, strings.ReplaceAll(key, "/", "_")+".hps")
}

// prepass fills the store directory (untimed) and computes every
// reference answer. Whole-matrix references are unloaded Computes on
// the prepared matrix restored from the very file the servers restore.
// Sharded references are unloaded gathers through a router, checked
// against a serial multiply to rounding.
func (w *serveWorkload) prepass() error {
	if w.sharded {
		dep, err := w.deploy(nil, nil, nil)
		if err != nil {
			return err
		}
		c := newClient(0, dep.front.Addr, nil)
		defer c.close()
		for p := range w.tenants[0] {
			// t.Ref is still nil, so o.Mismatch means nothing yet: this
			// answer becomes the reference once it passes nearSerial.
			t := &w.tenants[0][p]
			o := c.multiply(t, 0)
			if o.Err != nil {
				dep.stop()
				return o.Err
			}
			t.Ref = o.Y
			if err := nearSerial(w.mats[server.Key(t.Matrix, t.Scale)], t.X, t.Ref); err != nil {
				dep.stop()
				return fmt.Errorf("sharded gather: %w", err)
			}
		}
		dep.stop()
		return nil
	}
	reg := server.NewRegistry(machineModel(), core.New(core.Options{}),
		server.RegistryOptions{MaxEntries: len(w.tenants), Source: w.source, StoreDir: w.dir})
	for _, ts := range w.tenants {
		if _, err := reg.Get(context.Background(), ts[0].Matrix, ts[0].Scale); err != nil {
			reg.Close()
			return err
		}
	}
	reg.Close() // waits for the write-through spills
	for i, ts := range w.tenants {
		f, err := store.Load(storeFile(w.dir, server.Key(ts[0].Matrix, ts[0].Scale)))
		if err != nil {
			return err
		}
		prep, err := core.RestorePrepared(machineModel(), f.Snap)
		if err != nil {
			f.Close()
			return err
		}
		a := w.mats[server.Key(ts[0].Matrix, ts[0].Scale)]
		for p := range ts {
			ref := make([]float64, a.Rows)
			prep.Compute(ref, ts[p].X)
			w.tenants[i][p].Ref = ref
		}
		f.Close()
		if err := nearSerial(a, ts[0].X, ts[0].Ref); err != nil {
			return fmt.Errorf("%s: %w", ts[0].Matrix, err)
		}
	}
	return nil
}

// nearSerial checks y against the serial reference multiply to rounding
// (bit identity is checked against the prepared or gathered reference;
// this catches a reference that is itself wrong).
func nearSerial(a *sparse.CSR, x, y []float64) error {
	want := make([]float64, a.Rows)
	a.MulVec(want, x)
	for i := range want {
		if d := math.Abs(want[i] - y[i]); d > 1e-9*(1+math.Abs(want[i])) {
			return fmt.Errorf("y[%d] = %g, serial multiply gives %g", i, y[i], want[i])
		}
	}
	return nil
}

// deployment is one running server stack: a single server.Server, or
// two workers behind a fleet.Router.
type deployment struct {
	front     *listener
	listeners []*listener
	servers   []*server.Server
	transport *http.Transport
}

// deploy starts the workload's servers (restoring from the store on
// first use) and returns once the front listener accepts connections.
// wrap, when set, wraps every handler (fault injection in tests).
func (w *serveWorkload) deploy(tr *tracer, rec *tracing.Recorder, wrap func(http.Handler) http.Handler) (*deployment, error) {
	if wrap == nil {
		wrap = func(h http.Handler) http.Handler { return h }
	}
	d := &deployment{}
	workers := 1
	if w.sharded {
		workers = len(backendNames)
	}
	names := map[string]string{}
	for i := 0; i < workers; i++ {
		srv := newServer(w.source, w.dir, w.capacity, rec)
		l, err := listen(wrap(tr.handler("server.ServeHTTP", srv)))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.listeners = append(d.listeners, l)
		names[backendNames[i]] = l.Addr
	}
	if !w.sharded {
		d.front = d.listeners[0]
		return d, nil
	}
	t := w.tenants[0][0]
	d.transport = dialMap(names)
	rt, err := fleet.NewRouter(fleet.RouterOptions{
		Backends:     func() []string { return backendNames },
		Shards:       map[string]int{server.Key(t.Matrix, t.Scale): len(backendNames)},
		DefaultScale: t.Scale,
		Client:       &http.Client{Transport: d.transport, Timeout: 30 * time.Second},
	})
	if err != nil {
		d.stop()
		return nil, err
	}
	l, err := listen(wrap(tr.handler("router.ServeHTTP", rt)))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.front = l
	return d, nil
}

// stop shuts the stack down front to back and waits for every server
// goroutine and batcher to exit.
func (d *deployment) stop() {
	if d.front != nil && (len(d.listeners) == 0 || d.front != d.listeners[0]) {
		d.front.stop()
	}
	for _, l := range d.listeners {
		l.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range d.servers {
		s.Drain(ctx)
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
}

// setup starts a fresh deployment and waits until it has answered
// correctly, returning the elapsed time: the first response for a
// single-matrix workload, the first response of every tenant (in Zipf
// rank order) for serve-small.
func (w *serveWorkload) setup(tr *tracer, rec *tracing.Recorder, wrap func(http.Handler) http.Handler) (*deployment, time.Duration, error) {
	t0 := time.Now()
	d, err := w.deploy(tr, rec, wrap)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(0, d.front.Addr, nil)
	defer c.close()
	for _, ts := range w.tenants {
		o := c.multiply(&ts[0], 0)
		if o.Err == nil && o.Mismatch {
			o.Err = fmt.Errorf("%s: first response is not bit-identical to the reference", ts[0].Matrix)
		}
		if o.Err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("first response: %w", o.Err)
		}
	}
	return d, time.Since(t0), nil
}

// run drives the closed loop against d for dur.
func (w *serveWorkload) run(d *deployment, tr *tracer, dur time.Duration, seed int64) loadStats {
	cs := make([]*client, clients)
	rngs := make([]*rand.Rand, clients)
	zipfs := make([]*rand.Zipf, clients)
	for i := range cs {
		cs[i] = newClient(i, d.front.Addr, tr)
		rngs[i] = rand.New(rand.NewSource(mixSeed(seed, fmt.Sprintf("client/%d", i))))
		if w.zipf {
			zipfs[i] = rand.NewZipf(rngs[i], zipfS, 1, uint64(len(w.tenants)-1))
		}
	}
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	return closedLoop(clients, dur, 1, func(c, seq int) outcome {
		tenant := 0
		if w.zipf {
			tenant = int(zipfs[c].Uint64())
		}
		return cs[c].multiply(&w.tenants[tenant][rngs[c].Intn(patterns)], seq)
	})
}
