package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"haspmv/internal/exec"
	"haspmv/internal/kernel"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

var (
	cBatchComputes = telemetry.NewCounter("core_batch_computes")
	cBatchVectors  = telemetry.NewCounter("core_batch_vectors")
)

// batchScratch is the per-call workspace of the fragment walk, pooled on
// Prepared.batch. Every multiply runs this one walk: ComputeBatch over
// its vector block, Compute over a one-vector block whose Y/X headers
// live here (y1/x1), so neither allocates. The extraY conflict values
// for all vectors of all cores live in one flat slice sized to nvCap, so
// a steady stream of calls with a stable (or shrinking) vector count
// allocates nothing.
type batchScratch struct {
	p    *Prepared
	Y, X [][]float64
	// y1/x1 back Y and X for single-vector calls.
	y1, x1 [1][]float64
	tel    *telemetry.Collector
	regs   []Region
	nv     int
	nvCap  int
	// span names the per-core telemetry span: "core" for Compute,
	// "batch-core" for ComputeBatch.
	span     string
	extraRow []int
	extraVal []float64 // len(regions)*nvCap, core id strided by nvCap
	// pending holds one rendezvous counter per region slot for the
	// segmented-sum parallel patch (indexed by the group head's slot);
	// counters are zero between calls (the patching member resets its
	// group's counter), so the pooled scratch needs no per-call sweep.
	pending []atomic.Int32
	// sums is the per-core kernel output block (len(regions)*MaxBlock,
	// strided by MaxBlock). It lives in the pooled scratch rather than on
	// run's stack so that passing it to the generic compressed block
	// kernels cannot cost a per-call heap allocation.
	sums []float64
	// durNs is each slot's kernel time for the current call — one plain
	// store per core, read by the traced path to surface the critical-path
	// core without touching the always-on cumulative accumulators.
	durNs []int64
	body  func(id int)
}

func (p *Prepared) newBatchScratch(nv int) *batchScratch {
	// Round the capacity up to a whole number of register blocks so
	// growing a batch by one vector does not immediately reallocate.
	cap := (nv + kernel.MaxBlock - 1) / kernel.MaxBlock * kernel.MaxBlock
	n := len(*p.regions.Load())
	s := &batchScratch{
		p:        p,
		nvCap:    cap,
		extraRow: make([]int, n),
		extraVal: make([]float64, n*cap),
		pending:  make([]atomic.Int32, n),
		sums:     make([]float64, n*kernel.MaxBlock),
		durNs:    make([]int64, n),
	}
	s.body = s.run
	return s
}

// claimScratch takes the pooled workspace (or a fresh one when another
// call holds it or it is too narrow for nv vectors).
func (p *Prepared) claimScratch(nv int) *batchScratch {
	s := p.batch.Swap(nil)
	if s == nil || s.nvCap < nv {
		s = p.newBatchScratch(nv)
	}
	return s
}

// block returns the vectors [v0, v0+MaxBlock) of the call (fewer at the
// tail): the register block one sweep over a region serves.
func (s *batchScratch) block(v0 int) (Y, X [][]float64) {
	v1 := min(v0+kernel.MaxBlock, s.nv)
	return s.Y[v0:v1], s.X[v0:v1]
}

// run is one core's share of a call (the body Algorithm 5 gives each
// thread), plus the always-on accumulators and optional span recording:
// nonzeros processed, row fragments walked, and whether this core
// produced an extraY entry.
func (s *batchScratch) run(id int) {
	p := s.p
	s.extraRow[id] = -1
	s.durNs[id] = 0
	reg := s.regs[id]
	if reg.Lo >= reg.Hi {
		return
	}
	t0 := time.Now()
	var frags int
	if reg.SegSum {
		frags = s.runSegSum(id, reg)
	} else {
		frags = s.runFragments(id, reg)
	}
	nnzDone := reg.Hi - reg.Lo
	dur := time.Since(t0)
	// Always-on signal for the adapter: per-slot busy nanoseconds and
	// nonzeros, independent of the gated telemetry collector.
	p.accum[id].ns.Add(int64(dur))
	p.accum[id].nnz.Add(int64(nnzDone))
	s.durNs[id] = int64(dur)
	cNNZFormat[reg.Format].Add(int64(nnzDone))
	cNNZValue[reg.Val].Add(int64(nnzDone))
	if tel := s.tel; tel != nil {
		extra := 0
		if reg.PatchCont || s.extraRow[id] >= 0 {
			extra = 1
		}
		tel.RecordSpan(telemetry.Span{
			Name: s.span, Core: reg.Core,
			Start: t0.Sub(tel.Start()), Dur: dur,
			NNZ: nnzDone, Fragments: frags, ExtraY: extra,
		})
	}
}

// runFragments is the classic per-row fragment walk of a serial-epilogue
// region. The vector loop sits outside the walk: each MaxBlock-wide
// block sweeps the region once, every fragment served by one bit-exact
// fused pass over its value and column streams (sums[j] carries exactly
// the bits a single-vector kernel produces for X[j]). A one-vector call
// is a single sweep through the single-vector kernels. Returns the
// fragments walked per sweep.
func (s *batchScratch) runFragments(id int, reg Region) (frags int) {
	p, h := s.p, s.p.h
	un := p.unroll[id]
	extra := s.extraVal[id*s.nvCap : id*s.nvCap+s.nv]
	sums := s.sums[id*kernel.MaxBlock : (id+1)*kernel.MaxBlock]
	for v0 := 0; v0 < s.nv; v0 += kernel.MaxBlock {
		Y, X := s.block(v0)
		w := len(X)
		// A one-vector sweep calls the single-vector kernels directly:
		// on short rows the per-fragment call and store are the cost.
		y0, x0 := Y[0], X[0]
		frags = 0
		r, pos := reg.StartRow, reg.Lo
		for pos < reg.Hi {
			rowStart, rowEnd := h.RowPtr[r], h.RowPtr[r+1]
			fragEnd := min(rowEnd, reg.Hi)
			if fragEnd > pos {
				o := h.RowBeginNNZ[r]
				klo, khi := o+(pos-rowStart), o+(fragEnd-rowStart)
				// Per-region format dispatch: the branches take the same
				// arm for every fragment of the region, so they predict
				// perfectly.
				first := pos == rowStart
				if w == 1 {
					sum := p.dotFragment(reg.Format, reg.Val, r, klo, khi, un, x0)
					if first {
						// This core owns the row's first fragment: direct
						// store (Algorithm 5's y[pl[id]] = kernel(...)).
						y0[h.Perm[r]] = sum
					} else {
						extra[v0] = sum
					}
				} else {
					p.dotFragmentBlock(reg.Format, reg.Val, r, klo, khi, un, X, sums[:w])
					if first {
						for j, y := range Y {
							y[h.Perm[r]] = sums[j]
						}
					} else {
						copy(extra[v0:v0+w], sums[:w])
					}
				}
				if !first {
					// Continuation fragment: only the first row of a
					// region can start mid-row, so one conflict slot per
					// core.
					s.extraRow[id] = h.Perm[r]
				}
				frags++
				pos = fragEnd
			}
			r++
		}
	}
	return frags
}

// ComputeBatch performs Y[v] = A * X[v] for a block of vectors with one
// sweep over the matrix structure per register block: each row
// fragment's value and column streams are walked once per block of
// kernel.MaxBlock vectors by the register-blocked kernels
// (kernel.DotRangeBlockC and its value/run variants), amortizing the
// index stream the way block Krylov solvers and multi-source graph
// traversals expect. The partition, reorder and extraY conflict handling
// are Algorithm 5's, generalized to a vector block, and the steady-state
// path performs zero heap allocations for any nv (the workspace is
// pooled on Prepared.batch).
//
// ComputeBatch is bit-exact with respect to Compute: Y[v] carries exactly
// the float64 bits that Compute(Y[v], X[v]) would have produced, for any
// nv. The fused kernels keep per-vector accumulator chains identical to
// the single-vector dispatch, and the empty-row zeroing, direct stores
// and serial extraY epilogue run in the same order. The serving layer's
// dynamic batcher relies on this to coalesce concurrent requests without
// changing any response.
func (p *Prepared) ComputeBatch(Y, X [][]float64) { p.computeBatchWith(Y, X, nil) }

// ComputeBatchTraced is ComputeBatch plus the same stage breakdown
// ComputeTraced produces, with the batch's traffic priced at one
// structure sweep per register block of vectors. bd is caller-owned and
// reused; the traced path allocates nothing beyond ComputeBatch.
func (p *Prepared) ComputeBatchTraced(Y, X [][]float64, bd *tracing.ComputeBreakdown) {
	p.computeBatchWith(Y, X, bd)
}

func (p *Prepared) computeBatchWith(Y, X [][]float64, bd *tracing.ComputeBreakdown) {
	nv := len(X)
	if len(Y) != nv {
		panic(fmt.Sprintf("core: batch size mismatch %d vs %d", len(Y), nv))
	}
	if nv == 0 {
		return
	}
	for _, x := range X {
		if len(x) != p.mat.Cols {
			panic(fmt.Sprintf("core: batch x length %d, want %d", len(x), p.mat.Cols))
		}
	}
	for _, y := range Y {
		if len(y) != p.mat.Rows {
			panic(fmt.Sprintf("core: batch y length %d, want %d", len(y), p.mat.Rows))
		}
	}
	p.walk(p.claimScratch(nv), Y, X, bd, false)
}

// walk runs one multiply over the claimed workspace s: empty-row
// zeroing, the parallel per-core walk, and the serial epilogue (Algorithm
// 5 lines 15-17), then returns s to the pool. single selects the
// telemetry identity of a Compute call (core_computes, the compute phase,
// "core" spans) over that of a ComputeBatch call (core_batch_computes,
// the batch phase, "batch-core" spans).
func (p *Prepared) walk(s *batchScratch, Y, X [][]float64, bd *tracing.ComputeBreakdown, single bool) {
	nv := len(X)
	tel := telemetry.Active()
	var t0 time.Time
	if tel != nil || bd != nil {
		t0 = time.Now()
	}
	s.span = "batch-core"
	if single {
		s.span = "core"
	}
	// One regions snapshot per call: every worker of this multiply walks
	// the same tiling even if Repartition swaps the partition mid-flight.
	s.Y, s.X, s.tel, s.nv, s.regs = Y, X, tel, nv, *p.regions.Load()
	for _, y := range Y {
		zeroRows(y, p.emptyRows)
	}
	n := len(s.regs)
	exec.Parallel(n, s.body)
	var tKernel time.Time
	if bd != nil {
		tKernel = time.Now()
	}
	// Serial epilogue: add the tail conflicts, per vector in ascending
	// region order.
	for id := 0; id < n; id++ {
		if s.extraRow[id] >= 0 {
			extra := s.extraVal[id*s.nvCap:]
			for v, y := range Y {
				y[s.extraRow[id]] += extra[v]
			}
		}
	}
	if bd != nil {
		bd.KernelNs = int64(tKernel.Sub(t0))
		bd.MergeNs = int64(time.Since(tKernel))
		p.fillBreakdown(bd, s.regs, s.durNs, p.batchTrafficBytes(nv))
	}
	s.Y, s.X, s.tel, s.regs = nil, nil, nil, nil
	s.y1[0], s.x1[0] = nil, nil
	p.batch.Store(s)
	if single {
		cComputes.Add(1)
	} else {
		cBatchComputes.Add(1)
		cBatchVectors.Add(int64(nv))
	}
	if tel != nil {
		d := time.Since(t0)
		if single {
			tel.RecordPhase(telemetry.PhaseCompute, d)
			computeHist.Observe(d)
		} else {
			tel.RecordPhase(telemetry.PhaseBatch, d)
		}
		p.recordBandwidth(p.batchTrafficBytes(nv), d)
	}
}

// zeroRows clears y at every listed row: rows with no nonzeros are not
// visited by the region walk, so each multiply zeroes them explicitly.
// It stays out of line because inlined into walk the loop counter is
// spilled through the stack, which on matrices with many empty rows
// (power-law) doubled the zeroing time.
//
//go:noinline
func zeroRows(y []float64, rows []int) {
	for _, r := range rows {
		y[r] = 0
	}
}
