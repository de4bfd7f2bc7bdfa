package vendorlike

import (
	"math/bits"
	"os"
	"runtime"
	"testing"
	"time"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

func TestCorrectnessBothFlavors(t *testing.T) {
	for _, m := range []*amp.Machine{amp.IntelI912900KF(), amp.AMDRyzen97950X3D()} {
		for _, f := range []Flavor{MKL, AOCL} {
			alg := New(f, amp.PAndE)
			t.Run(m.Name+"/"+alg.Name(), func(t *testing.T) {
				algtest.CheckAlgorithm(t, alg, m)
			})
		}
	}
}

func TestPropertyRandomMatrices(t *testing.T) {
	algtest.CheckProperty(t, New(MKL, amp.PAndE), amp.IntelI913900KF(), 10)
	algtest.CheckProperty(t, New(AOCL, amp.PAndE), amp.AMDRyzen97950X3D(), 10)
}

func TestFlavorNames(t *testing.T) {
	if MKL.String() != "oneMKL-like" || AOCL.String() != "AOCL-like" {
		t.Fatal("flavor strings")
	}
	if New(MKL, amp.POnly).Name() == New(AOCL, amp.POnly).Name() {
		t.Fatal("names collide")
	}
}

// prepMatrix is large enough that the optimize stages dominate the
// setup both flavors share.
func prepMatrix() *sparse.CSR {
	return gen.Spec{Name: "prep", Rows: 60000, Cols: 60000, TargetNNZ: 1200000,
		Dist: gen.NormalLen{Mean: 20, Std: 5, Min: 1, Max: 60}, Place: gen.Random, Seed: 3}.Generate()
}

// The AOCL optimize stage must be measurably more expensive than the MKL
// inspector (Figure 10's ranking mechanism). Tier-1 checks the mechanism
// deterministically: on top of everything the MKL inspector allocates,
// AOCL's optimize stage materializes a full transposed copy of the
// matrix. The wall-clock ranking is TestAOCLPreprocessingWallClock.
func TestAOCLPreprocessingHeavier(t *testing.T) {
	m := amp.AMDRyzen97950X3D()
	a := prepMatrix()
	allocated := func(f Flavor) uint64 {
		least := ^uint64(0)
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := New(f, amp.PAndE).Prepare(m, a); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	mkl, aocl := allocated(MKL), allocated(AOCL)
	transposed := uint64(a.NNZ()) * uint64(bits.UintSize/8+8)
	if aocl < mkl+transposed {
		t.Fatalf("AOCL prep allocates %d B, MKL %d B: want at least a %d B transposed copy more", aocl, mkl, transposed)
	}
}

// TestAOCLPreprocessingWallClock is the wall-clock form of the ranking:
// AOCL's prep takes at least twice MKL's, best of three each. It needs a
// quiet host, so it runs only in the serialized bench-gate CI job
// (HASPMV_TIMING_GATE=1), not under a parallel go test ./...
func TestAOCLPreprocessingWallClock(t *testing.T) {
	if os.Getenv("HASPMV_TIMING_GATE") == "" {
		t.Skip("wall-clock gate: set HASPMV_TIMING_GATE=1 on a quiet host")
	}
	m := amp.AMDRyzen97950X3D()
	a := prepMatrix()
	best := func(f Flavor) time.Duration {
		b := time.Duration(1 << 62)
		for trial := 0; trial < 3; trial++ {
			_, d, err := exec.TimePrepare(New(f, amp.PAndE), m, a)
			if err != nil {
				t.Fatal(err)
			}
			if d < b {
				b = d
			}
		}
		return b
	}
	mklTime := best(MKL)
	aoclTime := best(AOCL)
	if aoclTime < 2*mklTime {
		t.Fatalf("AOCL prep %v not clearly heavier than MKL %v", aoclTime, mklTime)
	}
}

func TestLongRowHintLowersUnroll(t *testing.T) {
	m := amp.IntelI912900KF()
	long := gen.Spec{Name: "lr", Rows: 100, Cols: 20000, TargetNNZ: 100 * 200,
		Dist: gen.ConstLen{L: 200}, Place: gen.Random, Seed: 4}.Generate()
	prep, err := New(MKL, amp.PAndE).Prepare(m, long)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.(*prepared).unroll; got != 32 {
		t.Fatalf("long-row unroll hint = %d, want 32", got)
	}
	short := algtest.Matrix("banded-fem")
	prep, err = New(MKL, amp.PAndE).Prepare(m, short)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.(*prepared).unroll; got == 32 {
		t.Fatal("short-row matrix took long-row hint")
	}
}

func TestRejectsInvalidMatrix(t *testing.T) {
	bad := algtest.Matrix("fig1-8x8").Clone()
	bad.RowPtr[0] = 2
	if _, err := New(MKL, amp.PAndE).Prepare(amp.IntelI912900KF(), bad); err == nil {
		t.Fatal("accepted invalid matrix")
	}
}
