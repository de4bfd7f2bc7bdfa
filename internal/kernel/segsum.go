package kernel

// Speculative segmented-sum kernels (Liu & Vinter, arXiv:1504.06474,
// adapted to HACSR): instead of the per-fragment walk — one DotRange
// call per row, with the caller loading RowPtr/RowBeginNNZ/Perm and
// clamping against the region end for every row — a core executes a run
// of *whole* rows from a flat []Segment descriptor stream. The row loop
// lives inside the kernel, the short-row path is inlined, and each sum
// scatter-stores straight to its destination row. On power-law matrices
// whose typical row holds only a few nonzeros this removes the dominant
// per-row overhead; rows cut across cores are handled by the caller
// (head/continuation fragments plus a parallel patch, see
// internal/core).
//
// Every segmented kernel is *bit-exact* with the per-row walk it
// replaces: the dispatch thresholds and accumulator chains are exactly
// DotRange's (the straight-line short-row cases below replay DotRange's
// scalar loop add by add, and dot4C/dot8C are the shared unrolled
// bodies), so a whole row produces the same float64 bits either way.

// Segment describes one whole reordered row: its value range in
// original-nnz space (HACSR never physically permutes the value array,
// so consecutive reordered rows are not contiguous and both bounds are
// stored) and the original (destination) row its sum stores to. The
// fields are int32 so a descriptor is 12 bytes — small enough that the
// descriptor stream stays a minor traffic term next to the values —
// which gates segmented execution to matrices with fewer than 2^31
// nonzeros and rows (internal/core checks before building).
type Segment struct {
	K0, K1 int32
	Dst    int32
}

// segSumC executes segs over a column stream: y[s.Dst] =
// dot(val[s.K0:s.K1], x) per segment, skipping empty segments (empty
// rows are pre-zeroed by the caller). bases[i] is the delta base column
// of segs[i]'s row for the u16 stream (bases is parallel to segs) and
// nil for the absolute u32 and []int streams. Returns the number of
// non-empty segments processed.
//
// The per-segment dispatch is DotRange's — straight-line scalar under
// ScalarThreshold, dot4C under unrollLen, dot8C above — so each row's
// chain is bit-identical to the fragment walk's.
func segSumC[C ColIndex](val []float64, col []C, bases []int, x, y []float64, segs []Segment, unrollLen int) int {
	done := 0
	for i := range segs {
		s := segs[i]
		lo, hi := int(s.K0), int(s.K1)
		length := hi - lo
		if length <= 0 {
			continue
		}
		base := 0
		if bases != nil {
			base = bases[i]
		}
		var sum float64
		if length < ScalarThreshold {
			// Straight-line short-row cases: the same multiply-accumulate
			// chain as DotRange's scalar loop (each `sum +=` in sequence,
			// so the float64 bits match), without per-element loop
			// bookkeeping — on power-law matrices almost every row lands
			// here, so the row loop overhead is the dominant cost.
			switch length {
			case 1:
				sum += val[lo] * x[base+int(col[lo])]
			case 2:
				sum += val[lo] * x[base+int(col[lo])]
				sum += val[lo+1] * x[base+int(col[lo+1])]
			case 3:
				sum += val[lo] * x[base+int(col[lo])]
				sum += val[lo+1] * x[base+int(col[lo+1])]
				sum += val[lo+2] * x[base+int(col[lo+2])]
			default: // only reached if ScalarThreshold grows past 4
				for k := lo; k < hi; k++ {
					sum += val[k] * x[base+int(col[k])]
				}
			}
		} else if length < unrollLen {
			sum = dot4C(val, col, base, x, lo, hi)
		} else {
			sum = dot8C(val, col, base, x, lo, hi)
		}
		y[s.Dst] = sum
		done++
	}
	return done
}

// SegSumBlockC is the register-blocked segmented kernel:
// Y[j][s.Dst] = dot(val[s.K0:s.K1], X[j]) for j in [0, len(sums)),
// bit-identical per vector to segSumC. sums is the caller's pooled
// per-core block buffer (its length selects the block width). Returns
// the number of non-empty segments processed. A width-1 block runs
// segSumC itself, so the odd vector of a batch keeps the straight-line
// short-row cases; wider blocks take DotRangeBlockC per segment.
func SegSumBlockC[C ColIndex](val []float64, col []C, bases []int, X, Y [][]float64, sums []float64, segs []Segment, unrollLen int) int {
	w := len(sums)
	if w == 1 {
		return segSumC(val, col, bases, X[0], Y[0], segs, unrollLen)
	}
	done := 0
	for i := range segs {
		s := segs[i]
		lo, hi := int(s.K0), int(s.K1)
		if hi <= lo {
			continue
		}
		base := 0
		if bases != nil {
			base = bases[i]
		}
		DotRangeBlockC(val, col, base, X, sums, lo, hi, unrollLen)
		for j := 0; j < w; j++ {
			Y[j][s.Dst] = sums[j]
		}
		done++
	}
	return done
}
