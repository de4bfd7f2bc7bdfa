package kernel

// Compressed-index kernels: the same Algorithm 6 dot products walking a
// uint32 or uint16-delta column stream instead of []int. SpMV is stream
// bound, and the index stream is half the traffic of the val stream at
// 8 bytes per nonzero; narrowing it to 4 (u32 absolute) or 2 (u16 delta
// from a per-row base column) bytes cuts per-nnz stream bytes from 16 to
// 12 or 10 — see DESIGN.md "Memory-traffic model".
//
// Every instance is *bit-exact* with the []int oracle DotRange: the
// generic bodies below reproduce its dispatch thresholds,
// accumulator-chain assignment, reduction trees, and sequential
// remainders statement for statement, and the gathered operands
// x[base+int(col[k])] are the same float64s the []int kernel reads. Same
// chains over same values gives identical IEEE-754 results, which the
// serving batcher's coalescing contract and the fuzz bit-equality stage
// both depend on.

// ColIndex is the set of column-index element types the generic kernel
// bodies walk: the compressed uint16/uint32 streams plus the []int
// reference (which the block and segmented-sum kernels instantiate
// with base 0). Each type is a distinct gcshape, so no variant pays a
// boxing or interface cost.
type ColIndex interface {
	~uint16 | ~uint32 | ~int
}

// DotRangeC computes sum(val[k]*x[base+int(col[k])]) for k in [lo, hi),
// bit-identical to DotRange on the decoded indices. The u32 absolute
// stream passes base 0; the u16 delta stream stores each index as the
// offset of the true column from base (the minimum column of the rows
// encoded with it). The dispatch and both unrolled bodies are copied
// verbatim from kernel.go so the chain structure cannot drift.
func DotRangeC[C ColIndex](val []float64, col []C, base int, x []float64, lo, hi, unrollLen int) float64 {
	length := hi - lo
	if length <= 0 {
		return 0
	}
	if length < ScalarThreshold {
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += val[k] * x[base+int(col[k])]
		}
		return sum
	}
	if length < unrollLen {
		return dot4C(val, col, base, x, lo, hi)
	}
	return dot8C(val, col, base, x, lo, hi)
}

// dot4C mirrors dot4: four accumulators, (a0+a2)+(a1+a3) reduction,
// sequential remainder.
func dot4C[C ColIndex](val []float64, col []C, base int, x []float64, lo, hi int) float64 {
	var a0, a1, a2, a3 float64
	k := lo
	for ; k+4 <= hi; k += 4 {
		a0 += val[k] * x[base+int(col[k])]
		a1 += val[k+1] * x[base+int(col[k+1])]
		a2 += val[k+2] * x[base+int(col[k+2])]
		a3 += val[k+3] * x[base+int(col[k+3])]
	}
	sum := (a0 + a2) + (a1 + a3)
	for ; k < hi; k++ {
		sum += val[k] * x[base+int(col[k])]
	}
	return sum
}

// dot8C mirrors dot8: eight accumulators, the
// ((a0+a2)+(a1+a3))+((b0+b2)+(b1+b3)) reduction, sequential remainder.
func dot8C[C ColIndex](val []float64, col []C, base int, x []float64, lo, hi int) float64 {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := lo
	for ; k+8 <= hi; k += 8 {
		a0 += val[k] * x[base+int(col[k])]
		a1 += val[k+1] * x[base+int(col[k+1])]
		a2 += val[k+2] * x[base+int(col[k+2])]
		a3 += val[k+3] * x[base+int(col[k+3])]
		b0 += val[k+4] * x[base+int(col[k+4])]
		b1 += val[k+5] * x[base+int(col[k+5])]
		b2 += val[k+6] * x[base+int(col[k+6])]
		b3 += val[k+7] * x[base+int(col[k+7])]
	}
	sum := ((a0 + a2) + (a1 + a3)) + ((b0 + b2) + (b1 + b3))
	for ; k < hi; k++ {
		sum += val[k] * x[base+int(col[k])]
	}
	return sum
}

// DotRangeBlockC computes sums[j] = DotRangeC(val, col, base, X[j], lo,
// hi, unrollLen) for j in [0, len(sums)), reading the index stream from
// cache for all but the first vector of the block (see block.go). len(X)
// must be at least len(sums), and len(sums) must be between 1 and
// MaxBlock. Every result is bit-identical to the corresponding
// single-vector call.
func DotRangeBlockC[C ColIndex](val []float64, col []C, base int, X [][]float64, sums []float64, lo, hi, unrollLen int) {
	w := len(sums)
	length := hi - lo
	if length <= 0 {
		for j := 0; j < w; j++ {
			sums[j] = 0
		}
		return
	}
	if length < ScalarThreshold {
		for j := 0; j < w; j++ {
			x := X[j]
			sum := 0.0
			for k := lo; k < hi; k++ {
				sum += val[k] * x[base+int(col[k])]
			}
			sums[j] = sum
		}
		return
	}
	if length < unrollLen {
		dotBlock4C(val, col, base, X, sums, lo, hi, w)
		return
	}
	dotBlock8C(val, col, base, X, sums, lo, hi, w)
}

// dotBlock4C mirrors dot4: four accumulator chains per vector (chain i
// takes the nonzeros at positions lo+i, lo+i+4, ...), the
// (a0+a2)+(a1+a3) reduction, then the sequential remainder. Chain values
// are carried across tiles in acc, which preserves each chain's strictly
// sequential accumulation order.
func dotBlock4C[C ColIndex](val []float64, col []C, base int, X [][]float64, sums []float64, lo, hi, w int) {
	var acc [MaxBlock][4]float64
	k4 := lo + (hi-lo)&^3
	for kt := lo; kt < k4; kt += blockTile {
		kend := kt + blockTile
		if kend > k4 {
			kend = k4
		}
		for j := 0; j < w; j++ {
			x := X[j]
			a0, a1, a2, a3 := acc[j][0], acc[j][1], acc[j][2], acc[j][3]
			for k := kt; k < kend; k += 4 {
				a0 += val[k] * x[base+int(col[k])]
				a1 += val[k+1] * x[base+int(col[k+1])]
				a2 += val[k+2] * x[base+int(col[k+2])]
				a3 += val[k+3] * x[base+int(col[k+3])]
			}
			acc[j][0], acc[j][1], acc[j][2], acc[j][3] = a0, a1, a2, a3
		}
	}
	for j := 0; j < w; j++ {
		a := &acc[j]
		x := X[j]
		sum := (a[0] + a[2]) + (a[1] + a[3])
		for k := k4; k < hi; k++ {
			sum += val[k] * x[base+int(col[k])]
		}
		sums[j] = sum
	}
}

// dotBlock8C mirrors dot8: eight accumulator chains per vector, the
// ((a0+a2)+(a1+a3))+((b0+b2)+(b1+b3)) reduction, then the sequential
// remainder, with chain values carried across tiles as in dotBlock4C.
func dotBlock8C[C ColIndex](val []float64, col []C, base int, X [][]float64, sums []float64, lo, hi, w int) {
	var acc [MaxBlock][8]float64
	k8 := lo + (hi-lo)&^7
	for kt := lo; kt < k8; kt += blockTile {
		kend := kt + blockTile
		if kend > k8 {
			kend = k8
		}
		for j := 0; j < w; j++ {
			x := X[j]
			a := &acc[j]
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1, b2, b3 := a[4], a[5], a[6], a[7]
			for k := kt; k < kend; k += 8 {
				a0 += val[k] * x[base+int(col[k])]
				a1 += val[k+1] * x[base+int(col[k+1])]
				a2 += val[k+2] * x[base+int(col[k+2])]
				a3 += val[k+3] * x[base+int(col[k+3])]
				b0 += val[k+4] * x[base+int(col[k+4])]
				b1 += val[k+5] * x[base+int(col[k+5])]
				b2 += val[k+6] * x[base+int(col[k+6])]
				b3 += val[k+7] * x[base+int(col[k+7])]
			}
			a[0], a[1], a[2], a[3] = a0, a1, a2, a3
			a[4], a[5], a[6], a[7] = b0, b1, b2, b3
		}
	}
	for j := 0; j < w; j++ {
		a := &acc[j]
		x := X[j]
		sum := ((a[0] + a[2]) + (a[1] + a[3])) + ((a[4] + a[6]) + (a[5] + a[7]))
		for k := k8; k < hi; k++ {
			sum += val[k] * x[base+int(col[k])]
		}
		sums[j] = sum
	}
}
