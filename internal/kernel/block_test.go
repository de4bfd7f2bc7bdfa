package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomBatch(r *rand.Rand, nv, cols int) [][]float64 {
	X := make([][]float64, nv)
	for v := range X {
		X[v] = make([]float64, cols)
		for i := range X[v] {
			X[v][i] = r.NormFloat64()
		}
	}
	return X
}

// The block kernel's contract is bitwise: every width, dispatch branch
// and remainder count must reproduce the single-vector DotRange exactly,
// because the serving batcher promises responses independent of how many
// neighbours a request was coalesced with.
func TestBlockKernelBitIdenticalToDotRange(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	val, col, _ := randomData(r, 2048, 512)
	X := randomBatch(r, MaxBlock, 512)
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127, 128, 1000}
	sums := make([]float64, MaxBlock)
	for w := 1; w <= MaxBlock; w++ {
		for _, l := range lengths {
			for _, lo := range []int{0, 13} {
				for _, unroll := range []int{4, 64, 1 << 30} {
					hi := lo + l
					DotRangeBlockC(val, col, 0, X, sums[:w], lo, hi, unroll)
					for v := 0; v < w; v++ {
						ref := DotRange(val, col, X[v], lo, hi, unroll)
						if sums[v] != ref {
							t.Fatalf("w %d len %d lo %d unroll %d vec %d: got %v want %v (bitwise)",
								w, l, lo, unroll, v, sums[v], ref)
						}
					}
				}
			}
		}
	}
}

// The block kernel must also stay within reassociation tolerance of the
// single-accumulator reference (the same bound DotRange itself satisfies).
func TestBlockKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	val, col, _ := randomData(r, 2048, 512)
	X := randomBatch(r, MaxBlock, 512)
	sums := make([]float64, MaxBlock)
	for _, l := range []int{0, 3, 9, 65, 1000} {
		DotRangeBlockC(val, col, 0, X, sums, 7, 7+l, DefaultUnrollThreshold)
		for v := 0; v < MaxBlock; v++ {
			ref := DotRangeSimple(val, col, X[v], 7, 7+l)
			if math.Abs(sums[v]-ref) > 1e-9*(1+math.Abs(ref)) {
				t.Fatalf("len %d vec %d: got %v want %v", l, v, sums[v], ref)
			}
		}
	}
}

// Property: for arbitrary ranges and widths the block kernel is bitwise
// equal to per-vector DotRange.
func TestBlockKernelProperty(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint16, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		val, col, _ := randomData(r, 1024, 128)
		w := 1 + int(wRaw)%MaxBlock
		X := randomBatch(r, w, 128)
		lo := int(loRaw) % 1024
		hi := lo + int(hiRaw)%(1024-lo+1)
		sums := make([]float64, w)
		DotRangeBlockC(val, col, 0, X, sums, lo, hi, DefaultUnrollThreshold)
		for v := 0; v < w; v++ {
			if sums[v] != DotRange(val, col, X[v], lo, hi, DefaultUnrollThreshold) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The dispatch threshold only selects among numerically equivalent paths.
func TestBlockKernelThresholdDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	val, col, _ := randomData(r, 256, 64)
	X := randomBatch(r, MaxBlock, 64)
	a := make([]float64, MaxBlock)
	b := make([]float64, MaxBlock)
	DotRangeBlockC(val, col, 0, X, a, 0, 100, 1<<30) // forces the mid path
	DotRangeBlockC(val, col, 0, X, b, 0, 100, 4)     // forces the long path
	for v := 0; v < MaxBlock; v++ {
		if math.Abs(a[v]-b[v]) > 1e-9*(1+math.Abs(a[v])) {
			t.Fatalf("vec %d: mid %v vs long %v", v, a[v], b[v])
		}
	}
}

// BenchmarkDotRangeBlock prices the fused 8-vector pass against eight
// separate DotRange passes over the same stream.
func BenchmarkDotRangeBlock(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	val, col, _ := randomData(r, 1<<16, 1<<14)
	X := randomBatch(r, 8, 1<<14)
	sums := make([]float64, 8)
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(int64(12 * (1 << 16)))
		for i := 0; i < b.N; i++ {
			DotRangeBlockC(val, col, 0, X, sums, 0, 1<<16, DefaultUnrollThreshold)
		}
	})
	b.Run("repeated", func(b *testing.B) {
		b.SetBytes(int64(12 * (1 << 16)))
		for i := 0; i < b.N; i++ {
			for v := 0; v < 8; v++ {
				sums[v] = DotRange(val, col, X[v], 0, 1<<16, DefaultUnrollThreshold)
			}
		}
	})
}
