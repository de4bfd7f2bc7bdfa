package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// compressedData derives u32 and u16-delta streams from a random []int
// stream so every kernel variant can be run over identical indices. The
// delta stream is encoded against the minimum column present, mirroring
// what core's stream builder does per row.
func compressedData(r *rand.Rand, n, cols int) (val []float64, col []int, col32 []uint32, col16 []uint16, base int, x []float64) {
	val, col, x = randomData(r, n, cols)
	col32 = make([]uint32, n)
	col16 = make([]uint16, n)
	base = cols
	for _, c := range col {
		if c < base {
			base = c
		}
	}
	for k, c := range col {
		col32[k] = uint32(c)
		col16[k] = uint16(c - base)
	}
	return
}

// Every compressed variant must be bit-identical to the []int kernel on
// the same indices, across the scalar/4-wide/8-wide dispatch branches,
// all remainder counts, and nonzero lo offsets.
func TestCompressedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	val, col, col32, col16, base, x := compressedData(r, 2048, 512)
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127, 128, 1000, 2000}
	unrolls := []int{4, 32, 64, 1 << 30}
	for _, l := range lengths {
		for _, lo := range []int{0, 13} {
			hi := lo + l
			if hi > len(val) {
				continue
			}
			for _, un := range unrolls {
				want := DotRange(val, col, x, lo, hi, un)
				if got := DotRangeC(val, col32, 0, x, lo, hi, un); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("DotRangeC[u32] len %d lo %d un %d: got %x want %x", l, lo, un, got, want)
				}
				if got := DotRangeC(val, col16, base, x, lo, hi, un); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("DotRangeC[u16] len %d lo %d un %d: got %x want %x", l, lo, un, got, want)
				}
			}
		}
	}
}

func TestCompressedBlockBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	val, col, col32, col16, base, x := compressedData(r, 4096, 300)
	X := make([][]float64, MaxBlock)
	X[0] = x
	for j := 1; j < MaxBlock; j++ {
		X[j] = make([]float64, len(x))
		for i := range X[j] {
			X[j][i] = r.NormFloat64()
		}
	}
	lengths := []int{0, 1, 3, 4, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 3000}
	for _, l := range lengths {
		for _, lo := range []int{0, 5} {
			hi := lo + l
			if hi > len(val) {
				continue
			}
			for w := 1; w <= MaxBlock; w++ {
				for _, un := range []int{4, 64, 1 << 30} {
					want := make([]float64, w)
					DotRangeBlockC(val, col, 0, X, want, lo, hi, un)
					got := make([]float64, w)
					DotRangeBlockC(val, col32, 0, X, got, lo, hi, un)
					for j := 0; j < w; j++ {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("BlockC[u32] len %d lo %d w %d un %d vec %d: got %x want %x", l, lo, w, un, j, got[j], want[j])
						}
					}
					DotRangeBlockC(val, col16, base, X, got, lo, hi, un)
					for j := 0; j < w; j++ {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("BlockC[u16] len %d lo %d w %d un %d vec %d: got %x want %x", l, lo, w, un, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// A delta stream with the maximum encodable span (65535) must decode to
// the right columns — the eligibility boundary core's builder enforces.
func TestDelta16MaxSpan(t *testing.T) {
	const span = math.MaxUint16
	base := 3
	cols := base + span + 1
	val := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	col := []int{base, base + span, base + 1, base + span - 1, base + 7, base + 100, base + span, base, base + span/2}
	x := make([]float64, cols)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	col16 := make([]uint16, len(col))
	for k, c := range col {
		col16[k] = uint16(c - base)
	}
	for _, un := range []int{4, 64} {
		want := DotRange(val, col, x, 0, len(col), un)
		got := DotRangeC(val, col16, base, x, 0, len(col), un)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("max-span delta un %d: got %x want %x", un, got, want)
		}
	}
}
