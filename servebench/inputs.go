package main

import (
	"fmt"
	"math/rand"

	"haspmv"
	"haspmv/internal/amp"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// sizes fixes every input dimension of a run. Full runs use the sizes the
// workloads are documented with (README.md); quick runs shrink everything
// to toy size so the benchmark's own tests finish in seconds.
type sizes struct {
	PoissonGrid  int // solve-mix CG system is PoissonGrid² unknowns
	ZipfRows     int
	ZipfNNZ      int
	StencilRows  int
	PageRankStep int // Multiply+normalize steps per solve-mix pass
	BatchSteps   int // 8-wide MultiplyBatch steps per solve-mix pass
	LargeScale   int // scale divisor of the serve-large/serve-sharded matrix
	SmallScale   int // scale divisor of the serve-small tenants
	Reps         int // repetitions per ladder rung and per probe
	SetupReps    int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	PoissonGrid: 300, ZipfRows: 1 << 18, ZipfNNZ: 800_000, StencilRows: 1 << 17,
	PageRankStep: 120, BatchSteps: 40,
	LargeScale: 8, SmallScale: 64, Reps: 7, SetupReps: 11,
}

var quickSizes = sizes{
	PoissonGrid: 24, ZipfRows: 1 << 11, ZipfNNZ: 8_000, StencilRows: 2048,
	PageRankStep: 3, BatchSteps: 2,
	LargeScale: 512, SmallScale: 1024, Reps: 2, SetupReps: 2,
}

// machineModel is the AMP model every matrix is partitioned for; it is
// haspmv-serve's default. Host timings do not depend on it beyond the
// partition it induces.
func machineModel() *amp.Machine { return amp.IntelI912900KF() }

const (
	largeMatrix = "webbase-1M"
	// hotTenant is rank 1 of the serve-small Zipf draw and the small
	// matrix the ladder probes.
	hotTenant = "dawson5"
)

// smallTenants lists the serve-small tenants in Zipf rank order.
var smallTenants = []string{hotTenant, "rma10", "cant", "Dubcova2", "viscorocks", "G_n_pin_pout"}

// mixSeed derives an independent generator seed for one input from the
// workload seed, so inputs differ across seeds but repeat for one seed.
func mixSeed(seed int64, salt string) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for i := 0; i < len(salt); i++ {
		h ^= uint64(salt[i])
		h *= 0x100000001B3
	}
	return int64(h >> 1)
}

// representative is gen.Representative(name, scale) with the spec seed
// drawn from the workload seed: same row-length law and placement, a
// different instance per seed.
func representative(name string, scale int, seed int64) (*sparse.CSR, error) {
	ri, ok := gen.RepresentativeInfo(name)
	if !ok {
		return nil, fmt.Errorf("unknown representative matrix %q", name)
	}
	sp := ri.Spec
	sp.Rows = max(sp.Rows/scale, 64)
	sp.Cols = max(sp.Cols/scale, 64)
	sp.TargetNNZ = max(sp.TargetNNZ/scale, sp.Rows)
	switch d := sp.Dist.(type) {
	case gen.NormalLen:
		d.Max = min(d.Max, sp.Cols)
		d.Min = min(d.Min, d.Max)
		sp.Dist = d
	case gen.PowerLen:
		d.Max = min(d.Max, sp.Cols)
		d.Min = min(d.Min, d.Max)
		sp.Dist = d
	}
	sp.Seed = mixSeed(seed, name)
	return sp.Generate(), nil
}

// poisson2D assembles the 5-point Laplacian on an n×n grid: SPD, with 4
// on the diagonal and -1 to each grid neighbour.
func poisson2D(n int) *sparse.CSR {
	c := &haspmv.Triplets{Rows: n * n, Cols: n * n}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := i*n + j
			c.Add(r, r, 4)
			if i > 0 {
				c.Add(r, r-n, -1)
			}
			if i < n-1 {
				c.Add(r, r+n, -1)
			}
			if j > 0 {
				c.Add(r, r-1, -1)
			}
			if j < n-1 {
				c.Add(r, r+1, -1)
			}
		}
	}
	return c.ToCSR()
}

func zipfGraph(sz sizes, seed int64) *sparse.CSR {
	return gen.ZipfSpec{Name: "zipf", Rows: sz.ZipfRows, Cols: sz.ZipfRows,
		TargetNNZ: sz.ZipfNNZ, Seed: mixSeed(seed, "zipf")}.Generate()
}

func stencilBand(sz sizes, seed int64) *sparse.CSR {
	return gen.StencilSpec{Name: "stencil9", Rows: sz.StencilRows, Cols: sz.StencilRows,
		Diagonals: 9, Seed: mixSeed(seed, "stencil")}.Generate()
}

// vectors draws count dense vectors of length n with entries in [0.5, 1.5).
func vectors(count, n int, seed int64, salt string) [][]float64 {
	r := rand.New(rand.NewSource(mixSeed(seed, salt)))
	out := make([][]float64, count)
	for v := range out {
		out[v] = make([]float64, n)
		for i := range out[v] {
			out[v][i] = 0.5 + r.Float64()
		}
	}
	return out
}
