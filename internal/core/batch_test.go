package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
)

func TestComputeBatchMatchesCompute(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, name := range []string{"powerlaw", "alternating-empty", "hub-row", "tall-rect"} {
		a := algtest.Matrix(name)
		prep, err := New(Options{}).Prepare(m, a)
		if err != nil {
			t.Fatal(err)
		}
		p := prep.(*Prepared)
		r := rand.New(rand.NewSource(77))
		const nv = 5
		X := make([][]float64, nv)
		Y := make([][]float64, nv)
		for v := range X {
			X[v] = make([]float64, a.Cols)
			for i := range X[v] {
				X[v][i] = r.NormFloat64()
			}
			Y[v] = make([]float64, a.Rows)
			for i := range Y[v] {
				Y[v][i] = 1e300 // poison
			}
		}
		p.ComputeBatch(Y, X)
		for v := range X {
			want := make([]float64, a.Rows)
			p.Compute(want, X[v])
			for i := range want {
				if Y[v][i] != want[i] {
					t.Fatalf("%s: batch[%d][%d] = %v, want %v (bitwise)", name, v, i, Y[v][i], want[i])
				}
			}
		}
	}
}

// TestComputeBatchMatchesComputeAcrossNV sweeps the vector-tiling
// dispatch: every remainder class of the 8/4/2/1 block cascade (nv = 17
// exercises 8+8+1, 5 exercises 4+1, ...) must agree with per-vector
// Compute, including on rows cut across regions (hub-row's giant row) and
// after shrinking nv below a previous call's capacity (scratch reuse).
func TestComputeBatchMatchesComputeAcrossNV(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, name := range []string{"powerlaw", "hub-row", "alternating-empty"} {
		a := algtest.Matrix(name)
		prep, err := New(Options{}).Prepare(m, a)
		if err != nil {
			t.Fatal(err)
		}
		p := prep.(*Prepared)
		cut := false
		for _, reg := range p.Regions() {
			if reg.Lo < reg.Hi && p.Format().RowPtr[reg.StartRow] < reg.Lo {
				cut = true
			}
		}
		if name == "hub-row" && !cut {
			t.Fatal("hub-row partition produced no mid-row cut; batch epilogue untested")
		}
		r := rand.New(rand.NewSource(42))
		// Descending order makes later iterations reuse a scratch whose
		// capacity exceeds nv.
		for _, nv := range []int{17, 8, 5, 3, 2, 1} {
			X := make([][]float64, nv)
			Y := make([][]float64, nv)
			for v := range X {
				X[v] = make([]float64, a.Cols)
				for i := range X[v] {
					X[v][i] = r.NormFloat64()
				}
				Y[v] = make([]float64, a.Rows)
				for i := range Y[v] {
					Y[v][i] = 1e300 // poison
				}
			}
			p.ComputeBatch(Y, X)
			for v := range X {
				want := make([]float64, a.Rows)
				p.Compute(want, X[v])
				for i := range want {
					if Y[v][i] != want[i] {
						t.Fatalf("%s nv=%d: batch[%d][%d] = %v, want %v (bitwise)", name, nv, v, i, Y[v][i], want[i])
					}
				}
			}
		}
	}
}

// The pooled workspace must survive capacity growth: a small batch, then
// one larger than the rounded-up capacity, then small again.
func TestComputeBatchScratchGrowth(t *testing.T) {
	m := amp.IntelI912900KF()
	a := algtest.Matrix("hub-row")
	prep, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	r := rand.New(rand.NewSource(7))
	for _, nv := range []int{2, 17, 3, 9, 1} {
		X := make([][]float64, nv)
		Y := make([][]float64, nv)
		for v := range X {
			X[v] = make([]float64, a.Cols)
			for i := range X[v] {
				X[v][i] = r.NormFloat64()
			}
			Y[v] = make([]float64, a.Rows)
		}
		p.ComputeBatch(Y, X)
		for v := range X {
			want := make([]float64, a.Rows)
			a.MulVec(want, X[v])
			for i := range want {
				if math.Abs(Y[v][i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("nv=%d vec %d row %d: got %v want %v", nv, v, i, Y[v][i], want[i])
				}
			}
		}
	}
}

func TestComputeBatchViaExecHelper(t *testing.T) {
	m := amp.IntelI913900KF()
	a := gen.Representative("dawson5", 64)
	prep, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	// The helper must route to the fused path for core's Prepared...
	if _, ok := exec.Prepared(prep).(exec.BatchPrepared); !ok {
		t.Fatal("core Prepared does not implement BatchPrepared")
	}
	X := [][]float64{make([]float64, a.Cols), make([]float64, a.Cols)}
	Y := [][]float64{make([]float64, a.Rows), make([]float64, a.Rows)}
	for i := range X[0] {
		X[0][i] = 1
		X[1][i] = float64(i % 3)
	}
	exec.ComputeBatch(prep, Y, X)
	for v := range X {
		want := make([]float64, a.Rows)
		a.MulVec(want, X[v])
		for i := range want {
			if math.Abs(Y[v][i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("vector %d row %d", v, i)
			}
		}
	}
}

func TestComputeBatchValidation(t *testing.T) {
	m := amp.IntelI912900KF()
	a := algtest.Matrix("fig1-8x8")
	prep, _ := New(Options{}).Prepare(m, a)
	p := prep.(*Prepared)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	good := [][]float64{make([]float64, a.Cols)}
	goodY := [][]float64{make([]float64, a.Rows)}
	expectPanic("size mismatch", func() { p.ComputeBatch(goodY, append(good, good[0])) })
	expectPanic("short x", func() { p.ComputeBatch(goodY, [][]float64{make([]float64, 2)}) })
	expectPanic("short y", func() { p.ComputeBatch([][]float64{make([]float64, 2)}, good) })
	// Empty batch is a no-op.
	p.ComputeBatch(nil, nil)
}

// Compute and ComputeBatch share one pooled workspace. Goroutines
// mixing both on one Prepared (as the batcher's solo flushes and direct
// Multiply calls do) must each get bit-exact results: a call that finds
// the pool empty or too narrow runs on a fresh workspace.
func TestComputeAndBatchShareScratchConcurrently(t *testing.T) {
	m := amp.IntelI912900KF()
	a := algtest.Matrix("hub-row")
	prep, err := New(Options{Exec: ExecSegSum}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	r := rand.New(rand.NewSource(5))
	const nv = 9
	X := make([][]float64, nv)
	want := make([][]float64, nv)
	for v := range X {
		X[v] = make([]float64, a.Cols)
		for i := range X[v] {
			X[v][i] = r.NormFloat64()
		}
		want[v] = make([]float64, a.Rows)
		p.Compute(want[v], X[v])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			Y := make([][]float64, nv)
			for v := range Y {
				Y[v] = make([]float64, a.Rows)
			}
			for it := 0; it < 20; it++ {
				n := nv
				if (g+it)%2 == 0 {
					n = 1
					p.Compute(Y[0], X[0])
				} else {
					p.ComputeBatch(Y, X)
				}
				for v := 0; v < n; v++ {
					for i := range Y[v] {
						if math.Float64bits(Y[v][i]) != math.Float64bits(want[v][i]) {
							t.Errorf("goroutine %d iter %d nv=%d: Y[%d][%d] = %v, want %v", g, it, n, v, i, Y[v][i], want[v][i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
