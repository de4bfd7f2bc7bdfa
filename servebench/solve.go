package main

import (
	"fmt"
	"math"
	"time"

	"haspmv"
	"haspmv/internal/sparse"
	"haspmv/solver"
)

// cgTol is the relative residual solve-mix's CG must reach.
const cgTol = 1e-8

// batchWidth is the right-hand-side count of solve-mix's MultiplyBatch
// steps (one fused register block).
const batchWidth = 8

// solveMix is the library-path workload: one pass is a Jacobi-CG solve on
// a 2D Poisson system, PageRank-style Multiply+normalize steps on a Zipf
// graph and 8-wide MultiplyBatch steps on a 9-diagonal band.
type solveMix struct {
	sz                sizes
	poisson, zipf, st *sparse.CSR
	hP, hZ, hS        *haspmv.Handle
	b                 []float64
	precond           func(z, r []float64)
	rank0             []float64
	batch0            [][]float64
	ref               *passResult
}

// passResult is everything one pass produces; every pass must reproduce
// the reference pass bit for bit.
type passResult struct {
	Iterations int
	Residual   float64
	X          []float64
	Rank       []float64
	Batch      [][]float64
	// Calls holds the latency of every Multiply/MultiplyBatch/Apply call
	// and Flops the 2·nnz per multiplied vector those calls performed.
	Calls []time.Duration
	Flops float64
}

func newSolveMix(sz sizes, seed int64) (*solveMix, error) {
	s := &solveMix{sz: sz, poisson: poisson2D(sz.PoissonGrid), zipf: zipfGraph(sz, seed), st: stencilBand(sz, seed)}
	s.b = vectors(1, s.poisson.Rows, seed, "cg/b")[0]
	s.rank0 = vectors(1, s.zipf.Cols, seed, "pagerank")[0]
	s.batch0 = vectors(batchWidth, s.st.Cols, seed, "batch")
	var err error
	if s.precond, err = solver.DiagonalPreconditioner(s.poisson); err != nil {
		return nil, err
	}
	return s, nil
}

// analyze prepares all three matrices (the set-up solve-mix times).
func (s *solveMix) analyze() error {
	m := machineModel()
	var err error
	if s.hP, err = haspmv.Analyze(m, s.poisson, haspmv.Options{}); err != nil {
		return err
	}
	if s.hZ, err = haspmv.Analyze(m, s.zipf, haspmv.Options{}); err != nil {
		return err
	}
	s.hS, err = haspmv.Analyze(m, s.st, haspmv.Options{})
	return err
}

// timedOp is the CG operator: Apply through the handle, timed, and
// recorded as a solver.Apply span when tracing.
type timedOp struct {
	h      *haspmv.Handle
	calls  *[]time.Duration
	tr     *tracer
	parent int
}

func (o timedOp) Apply(y, x []float64) {
	t0 := time.Now()
	o.tr.around("solver.Apply", "", o.parent, func() { o.h.Multiply(y, x) })
	*o.calls = append(*o.calls, time.Since(t0))
}
func (o timedOp) Rows() int { return o.h.Rows() }
func (o timedOp) Cols() int { return o.h.Cols() }

// pass runs the fixed solve-mix sequence once.
func (s *solveMix) pass(tr *tracer) (*passResult, error) {
	r := &passResult{}
	root := tr.open("solve.pass", "", 0)
	defer tr.close(root, false)

	cg := tr.open("solver.CG", "", root)
	r.X = make([]float64, s.poisson.Rows)
	st, err := solver.CG(timedOp{h: s.hP, calls: &r.Calls, tr: tr, parent: cg}, s.b, r.X,
		solver.Options{Tol: cgTol, Precondition: s.precond})
	tr.close(cg, err != nil || !st.Converged)
	if err != nil {
		return nil, fmt.Errorf("CG: %w", err)
	}
	if !st.Converged || st.Residual >= cgTol {
		return nil, fmt.Errorf("CG stopped at residual %.3g after %d iterations, want < %g", st.Residual, st.Iterations, cgTol)
	}
	r.Iterations, r.Residual = st.Iterations, st.Residual
	// One Apply for the initial residual plus one per iteration.
	r.Flops += 2 * float64(s.poisson.NNZ()) * float64(st.Iterations+1)

	// PageRank-style power steps: y = A·v, v = y / sum(y).
	v := append([]float64(nil), s.rank0...)
	y := make([]float64, s.zipf.Rows)
	for k := 0; k < s.sz.PageRankStep; k++ {
		t0 := time.Now()
		tr.around("pagerank.Multiply", "", root, func() { s.hZ.Multiply(y, v) })
		r.Calls = append(r.Calls, time.Since(t0))
		sum := 0.0
		for _, yi := range y {
			sum += yi
		}
		for i := range v {
			v[i] = y[i] / sum
		}
	}
	r.Rank = v
	r.Flops += 2 * float64(s.zipf.NNZ()) * float64(s.sz.PageRankStep)

	// Fused 8-wide steps: Y = A·X, X = Y / max|Y| per vector.
	X := make([][]float64, batchWidth)
	Y := make([][]float64, batchWidth)
	for j := range X {
		X[j] = append([]float64(nil), s.batch0[j]...)
		Y[j] = make([]float64, s.st.Rows)
	}
	for k := 0; k < s.sz.BatchSteps; k++ {
		t0 := time.Now()
		tr.around("batch.MultiplyBatch", "", root, func() { s.hS.MultiplyBatch(Y, X) })
		r.Calls = append(r.Calls, time.Since(t0))
		for j := range X {
			m := 0.0
			for _, yi := range Y[j] {
				m = math.Max(m, math.Abs(yi))
			}
			for i := range X[j] {
				X[j][i] = Y[j][i] / m
			}
		}
	}
	r.Batch = Y
	r.Flops += 2 * float64(s.st.NNZ()) * float64(s.sz.BatchSteps*batchWidth)
	return r, nil
}

// check compares a pass against the reference pass bit for bit, and the
// iteration count against the reference count.
func (s *solveMix) check(r *passResult) error {
	ref := s.ref
	if r.Iterations != ref.Iterations {
		return fmt.Errorf("CG took %d iterations, the reference run took %d", r.Iterations, ref.Iterations)
	}
	if !sameBits(r.X, ref.X) {
		return fmt.Errorf("CG solution is not bit-identical to the reference run")
	}
	if !sameBits(r.Rank, ref.Rank) {
		return fmt.Errorf("PageRank vector is not bit-identical to the reference run")
	}
	for j := range r.Batch {
		if !sameBits(r.Batch[j], ref.Batch[j]) {
			return fmt.Errorf("MultiplyBatch output %d is not bit-identical to the reference run", j)
		}
	}
	return nil
}

// reference runs the untimed reference pass and checks it independently:
// the CG answer's true residual with the serial multiply, and one
// Multiply and one MultiplyBatch against serial multiplies to rounding.
func (s *solveMix) reference() error {
	r, err := s.pass(nil)
	if err != nil {
		return err
	}
	ax := make([]float64, s.poisson.Rows)
	s.poisson.MulVec(ax, r.X)
	num, den := 0.0, 0.0
	for i := range ax {
		num += (s.b[i] - ax[i]) * (s.b[i] - ax[i])
		den += s.b[i] * s.b[i]
	}
	if res := math.Sqrt(num / den); res >= 10*cgTol {
		return fmt.Errorf("reference CG answer has true residual %.3g", res)
	}
	y := make([]float64, s.zipf.Rows)
	s.hZ.Multiply(y, s.rank0)
	if err := nearSerial(s.zipf, s.rank0, y); err != nil {
		return fmt.Errorf("zipf Multiply: %w", err)
	}
	Y := make([][]float64, batchWidth)
	for j := range Y {
		Y[j] = make([]float64, s.st.Rows)
	}
	s.hS.MultiplyBatch(Y, s.batch0)
	for j := range Y {
		if err := nearSerial(s.st, s.batch0[j], Y[j]); err != nil {
			return fmt.Errorf("stencil MultiplyBatch vector %d: %w", j, err)
		}
	}
	s.ref = r
	return nil
}

// passStats is what one checked pass contributes to the end-to-end
// metrics.
type passStats struct {
	Wall  time.Duration
	Calls []time.Duration
	Flops float64
}

// run repeats passes for at least dur (and at least minPasses passes),
// checking each against the reference.
func (s *solveMix) run(tr *tracer, dur time.Duration, minPasses int) (loadStats, []passStats) {
	var passes []passStats
	st := closedLoop(1, dur, minPasses, func(_, _ int) outcome {
		t0 := time.Now()
		r, err := s.pass(tr)
		lat := time.Since(t0)
		if err != nil {
			return outcome{Err: err}
		}
		if err := s.check(r); err != nil {
			return outcome{Mismatch: true, Err: err}
		}
		passes = append(passes, passStats{Wall: lat, Calls: r.Calls, Flops: r.Flops})
		return outcome{Lat: lat, Flops: r.Flops}
	})
	return st, passes
}

// setSolveMetrics fills the end-to-end metrics of solve-mix. An
// operation is one multiply call, the unit its callers wait on. Each
// metric is taken per pass, and the calmer quartile over passes is
// reported (see calmQuarter).
func setSolveMetrics(m metrics, st loadStats, passes []passStats, setups []float64, heap float64) {
	var rps, p50, p90, p99, wall, gflops []float64
	for _, p := range passes {
		var kernel time.Duration
		for _, c := range p.Calls {
			kernel += c
		}
		rps = append(rps, float64(len(p.Calls))/p.Wall.Seconds())
		p50 = append(p50, percentileMs(p.Calls, 0.50))
		p90 = append(p90, percentileMs(p.Calls, 0.90))
		p99 = append(p99, percentileMs(p.Calls, 0.99))
		wall = append(wall, p.Wall.Seconds())
		gflops = append(gflops, p.Flops/float64(kernel.Nanoseconds()))
	}
	m.set("setup_s", "s", median(setups))
	m.set("setup_heap_mb", "MB", heap)
	m.set("throughput_rps", "1/s", calmQuarter(rps, true))
	m.set("latency_p50_ms", "ms", calmQuarter(p50, false))
	m.set("latency_p90_ms", "ms", calmQuarter(p90, false))
	m.set("latency_p99_ms", "ms", calmQuarter(p99, false))
	m.set("cpu_ms_per_op", "ms", float64(st.CPU.Nanoseconds())/1e6/float64(st.Attempted))
	m.set("solve_s", "s", calmQuarter(wall, false))
	m.set("spmv_gflops", "GFLOP/s", calmQuarter(gflops, true))
}
