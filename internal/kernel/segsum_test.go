package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// randomSegments cuts [0, n) into segments with a skewed length
// distribution (many empty and tiny rows, a few long ones) and
// increasing destination rows, mirroring the power-law profiles
// segmented execution exists for. Some segments are separated by gaps,
// as in the real descriptor stream: HACSR never physically permutes the
// value array, so consecutive reordered rows need not be contiguous.
func randomSegments(r *rand.Rand, n, rows int) []Segment {
	var segs []Segment
	pos := 0
	dst := 0
	for pos < n && dst < rows {
		var l int
		switch r.Intn(4) {
		case 0:
			l = 0
		case 1:
			l = r.Intn(4)
		case 2:
			l = r.Intn(40)
		default:
			l = r.Intn(300)
		}
		if pos+l > n {
			l = n - pos
		}
		segs = append(segs, Segment{K0: int32(pos), K1: int32(pos + l), Dst: int32(dst)})
		pos += l
		if r.Intn(3) == 0 { // non-contiguous: skip a few values
			pos += r.Intn(5)
			if pos > n {
				pos = n
			}
		}
		dst++
	}
	return segs
}

// Every segmented variant must store, per non-empty segment, exactly the
// bits the corresponding per-row DotRange call produces, across the
// scalar/4-wide/8-wide dispatch branches.
func TestSegSumBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	val, col, col32, col16, base, x := compressedData(r, 4096, 700)
	segs := randomSegments(r, len(val), 1<<20)
	rows := len(segs)
	bases := make([]int, rows)
	for i := range bases {
		bases[i] = base
	}
	for _, un := range []int{4, 32, 64, 1 << 30} {
		want := make([]float64, rows)
		nonEmpty := 0
		for i, s := range segs {
			if s.K1 > s.K0 {
				want[i] = DotRange(val, col, x, int(s.K0), int(s.K1), un)
				nonEmpty++
			} else {
				want[i] = math.NaN() // must stay untouched
			}
		}
		check := func(name string, y []float64, done int) {
			t.Helper()
			if done != nonEmpty {
				t.Fatalf("%s un %d: done %d, want %d", name, un, done, nonEmpty)
			}
			for i, s := range segs {
				if s.K1 <= s.K0 {
					if !math.IsNaN(y[i]) {
						t.Fatalf("%s un %d: empty segment %d written (%v)", name, un, i, y[i])
					}
					continue
				}
				if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s un %d seg %d: got %x want %x", name, un, i,
						math.Float64bits(y[i]), math.Float64bits(want[i]))
				}
			}
		}
		y := make([]float64, rows)
		for i := range y {
			y[i] = math.NaN()
		}
		check("segSumC[int]", y[:cap(y)], segSumC(val, col, nil, x, y, segs, un))
		for i := range y {
			y[i] = math.NaN()
		}
		check("segSumC[u32]", y, segSumC(val, col32, nil, x, y, segs, un))
		for i := range y {
			y[i] = math.NaN()
		}
		check("segSumC[u16]", y, segSumC(val, col16, bases, x, y, segs, un))
	}
}

func TestSegSumBlockBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	val, col, col32, col16, base, x := compressedData(r, 4096, 450)
	segs := randomSegments(r, len(val), 1<<20)
	rows := len(segs)
	bases := make([]int, rows)
	for i := range bases {
		bases[i] = base
	}
	X := make([][]float64, MaxBlock)
	X[0] = x
	for j := 1; j < MaxBlock; j++ {
		X[j] = make([]float64, len(x))
		for i := range X[j] {
			X[j][i] = r.NormFloat64()
		}
	}
	for _, w := range []int{1, 2, MaxBlock} {
		for _, un := range []int{4, 64, 1 << 30} {
			want := make([][]float64, w)
			nonEmpty := 0
			for j := 0; j < w; j++ {
				want[j] = make([]float64, rows)
			}
			for i, s := range segs {
				if s.K1 <= s.K0 {
					continue
				}
				nonEmpty++
				for j := 0; j < w; j++ {
					want[j][i] = DotRange(val, col, X[j], int(s.K0), int(s.K1), un)
				}
			}
			Y := make([][]float64, w)
			for j := range Y {
				Y[j] = make([]float64, rows)
			}
			sums := make([]float64, w)
			check := func(name string, done int) {
				t.Helper()
				if done != nonEmpty {
					t.Fatalf("%s w %d un %d: done %d, want %d", name, w, un, done, nonEmpty)
				}
				for j := 0; j < w; j++ {
					for i := range Y[j] {
						if math.Float64bits(Y[j][i]) != math.Float64bits(want[j][i]) {
							t.Fatalf("%s w %d un %d vec %d seg %d: got %x want %x", name, w, un, j, i,
								math.Float64bits(Y[j][i]), math.Float64bits(want[j][i]))
						}
					}
					for i := range Y[j] {
						Y[j][i] = 0
					}
				}
			}
			check("SegSumBlockC[int]", SegSumBlockC(val, col, nil, X, Y, sums, segs, un))
			check("SegSumBlockC[u32]", SegSumBlockC(val, col32, nil, X, Y, sums, segs, un))
			check("SegSumBlockC[u16]", SegSumBlockC(val, col16, bases, X, Y, sums, segs, un))
		}
	}
}
