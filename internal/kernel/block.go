package kernel

// Register-blocked batch kernels: the val/colIdx index stream is walked in
// L1-resident tiles, each tile feeding every x vector of the block before
// the next tile is touched. Batch SpMV is bound by the same streams as
// the single-vector kernel (Algorithm 6), so re-reading each tile from L1
// for the other vectors of the block divides the stream's DRAM traffic by
// the block width — the lever block Krylov solvers and multi-query
// workloads rely on — while the inner loops keep their partial sums in
// the same register accumulator chains as DotRange.
//
// That makes the kernels *bit-exact*: for every vector j the chains are
// assigned, carried across tiles, reduced and finished by the sequential
// remainder exactly as DotRange's scalar/4-wide/8-wide dispatch, so
//
//	DotRangeBlockC(val, col, base, X, sums, lo, hi, un)
//
// stores exactly DotRangeC(val, col, base, X[j], lo, hi, un) into
// sums[j], bit-for-bit, for every column stream including the []int
// reference (C = int, base 0). The serving layer's dynamic batcher
// depends on this: a request must produce the same float64 bits whether
// it was computed alone or coalesced with up to MaxBlock-1 neighbours.
// The bodies live in compressed.go (index streams), values.go (palette)
// and diag*.go (run descriptors).

// MaxBlock is the widest vector block the batch kernel processes in one
// call; ComputeBatch tiles larger batches into MaxBlock-wide pieces.
const MaxBlock = 8

// blockTile is the index-stream tile the block kernel revisits once per
// vector: 1024 nonzeros = 16KB of values + indices, comfortably inside a
// 32KB L1D alongside the gathered x lines. It is a multiple of 8 so tile
// boundaries never disturb the accumulator-chain assignment.
const blockTile = 1024
