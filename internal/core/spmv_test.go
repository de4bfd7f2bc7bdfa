package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"haspmv/internal/sparse"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
)

func TestCorrectnessAllMachinesAndOptions(t *testing.T) {
	for _, m := range amp.AllWithExtensions() {
		for _, opts := range []Options{
			{},                     // paper defaults
			{Metric: NNZCost},      // Fig 9 "by nnz"
			{Metric: RowCost},      // Fig 9 "by row"
			{DisableReorder: true}, // reorder ablation
			{OneLevel: true},       // heterogeneity ablation
			{Config: amp.POnly},    // single group
			{Config: amp.EOnly},    //
			{PProportion: 0.9},     // extreme split
			{PProportion: 0.1},     //
			{Base: 2},              // aggressive reorder
			{Base: 1 << 30},        // nothing is long
		} {
			alg := New(opts)
			t.Run(m.Name+"/"+alg.Name(), func(t *testing.T) {
				algtest.CheckAlgorithm(t, alg, m)
			})
		}
	}
}

func TestPropertyRandomMatrices(t *testing.T) {
	m := amp.IntelI913900KF()
	algtest.CheckProperty(t, New(Options{}), m, 20)
	algtest.CheckProperty(t, New(Options{Metric: NNZCost}), m, 10)
	algtest.CheckProperty(t, New(Options{DisableReorder: true, Metric: RowCost}), m, 10)
}

// Both row orders — the paper's length sort and the DisableReorder
// ablation — must produce a valid row permutation, full nonzero
// coverage and a correct product across the structural battery,
// including empty rows, hub rows and the hypersparse wide shape. The
// length sort must respect its short/long split and the ablation must
// keep the natural order.
func TestRowOrdersValidAndCorrect(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, name := range rowOrderBattery {
		a := algtest.Matrix(name)
		for _, disable := range []bool{false, true} {
			prep, err := New(Options{DisableReorder: disable}).Prepare(m, a)
			if err != nil {
				t.Fatalf("%s/disable=%v: Prepare: %v", name, disable, err)
			}
			h := prep.(*Prepared).Format()
			if err := h.Validate(a); err != nil {
				t.Fatalf("%s/disable=%v: %v", name, disable, err)
			}
			if disable {
				for i, r := range h.Perm {
					if r != i {
						t.Fatalf("%s: DisableReorder moved row %d to position %d", name, r, i)
					}
				}
			} else if h.Base <= 0 {
				t.Fatalf("%s: length sort recorded base %d", name, h.Base)
			}
			if err := exec.CheckAssignments(a, prep.Assignments()); err != nil {
				t.Fatalf("%s/disable=%v: %v", name, disable, err)
			}
			x := make([]float64, a.Cols)
			for i := range x {
				x[i] = 1 + float64(i%9)/4
			}
			y := make([]float64, a.Rows)
			want := make([]float64, a.Rows)
			prep.Compute(y, x)
			a.MulVec(want, x)
			for i := range y {
				if d := math.Abs(y[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("%s/disable=%v: y[%d] = %v, want %v", name, disable, i, y[i], want[i])
				}
			}
		}
	}
}

// rowOrderBattery is the structural battery the row-order tests share.
var rowOrderBattery = []string{"powerlaw", "banded-fem", "alternating-empty", "hub-row", "wide-rect", "tiny-3x3", "empty-0x0"}

// diffView reports the first field in which two HACSR views differ, or
// "" when they are the same view.
func diffView(a, b *HACSR) string {
	switch {
	case a.Rows != b.Rows || a.Cols != b.Cols:
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	case a.Base != b.Base:
		return fmt.Sprintf("Base %d vs %d", a.Base, b.Base)
	case a.NumShort != b.NumShort:
		return fmt.Sprintf("NumShort %d vs %d", a.NumShort, b.NumShort)
	case !slices.Equal(a.Perm, b.Perm):
		return "Perm differs"
	case !slices.Equal(a.RowPtr, b.RowPtr):
		return "RowPtr differs"
	case !slices.Equal(a.RowBeginNNZ, b.RowBeginNNZ):
		return "RowBeginNNZ differs"
	}
	return ""
}

// Prepare's row order is exactly Algorithm 2's conversion: with the
// default options it is Convert at AutoBase, and an explicit Base is
// used as given. No other ordering step sits between them.
func TestPrepareUsesLengthSort(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, name := range rowOrderBattery {
		a := algtest.Matrix(name)
		for _, base := range []int{0, 1, 4} {
			prep, err := New(Options{Base: base}).Prepare(m, a)
			if err != nil {
				t.Fatalf("%s/base=%d: Prepare: %v", name, base, err)
			}
			want := base
			if want == 0 {
				want = AutoBase(a)
			}
			if d := diffView(prep.(*Prepared).Format(), Convert(a, want)); d != "" {
				t.Fatalf("%s/base=%d: Prepare's view is not Convert(a, %d): %s", name, base, want, d)
			}
		}
	}
}

// Under a row-edge partition (RowCost never cuts inside a row) and the
// serial epilogue, every y[i] is one dot product over row i in column
// order, so the length sort must give the same bits as the natural
// order — before and after a repartition. This is the fuzz targets'
// reorder stage run over the whole battery at fixed proportions.
func TestRowOrderBitIdenticalToNaturalOrder(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, name := range rowOrderBattery {
		a := algtest.Matrix(name)
		opts := Options{Metric: RowCost, Index: IndexReference, Exec: ExecSerial, Value: ValueReference}
		lp, err := New(opts).Prepare(m, a)
		if err != nil {
			t.Fatalf("%s: length-sort Prepare: %v", name, err)
		}
		idOpts := opts
		idOpts.DisableReorder = true
		idOpts.PProportion = lp.(*Prepared).Plan().PProportion
		ip, err := New(idOpts).Prepare(m, a)
		if err != nil {
			t.Fatalf("%s: natural-order Prepare: %v", name, err)
		}
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = float64(i%11)/3 - 1.5
		}
		ly, iy := make([]float64, a.Rows), make([]float64, a.Rows)
		check := func(when string) {
			t.Helper()
			lp.Compute(ly, x)
			ip.Compute(iy, x)
			for i := range ly {
				if math.Float64bits(ly[i]) != math.Float64bits(iy[i]) {
					t.Fatalf("%s %s: length-sorted y[%d] = %x, natural order %x",
						name, when, i, math.Float64bits(ly[i]), math.Float64bits(iy[i]))
				}
			}
		}
		check("after Prepare")
		for _, pp := range []float64{0.2, 0.5, 0.85} {
			plan := Plan{PProportion: pp}
			if err := lp.(*Prepared).Repartition(plan); err != nil {
				t.Fatalf("%s: length-sort Repartition(%+v): %v", name, plan, err)
			}
			if err := ip.(*Prepared).Repartition(plan); err != nil {
				t.Fatalf("%s: natural-order Repartition(%+v): %v", name, plan, err)
			}
			check(fmt.Sprintf("after Repartition(%v)", pp))
		}
	}
}

// A snapshot carries the row order: the restored instance serves the
// same HACSR view as the original, and a DisableReorder instance comes
// back in natural order rather than being re-sorted.
func TestSnapshotRestoreKeepsRowOrder(t *testing.T) {
	m := amp.IntelI913900KF()
	for _, name := range rowOrderBattery {
		a := algtest.Matrix(name)
		for _, disable := range []bool{false, true} {
			prep, err := New(Options{DisableReorder: disable}).Prepare(m, a)
			if err != nil {
				t.Fatalf("%s/disable=%v: Prepare: %v", name, disable, err)
			}
			p := prep.(*Prepared)
			r, err := RestorePrepared(m, p.Snapshot())
			if err != nil {
				t.Fatalf("%s/disable=%v: RestorePrepared: %v", name, disable, err)
			}
			if d := diffView(r.Format(), p.Format()); d != "" {
				t.Fatalf("%s/disable=%v: restored view differs: %s", name, disable, d)
			}
			if disable {
				if d := diffView(r.Format(), Identity(a)); d != "" {
					t.Fatalf("%s: restored DisableReorder view is not the natural order: %s", name, d)
				}
			}
		}
	}
}

func TestDefaultProportion(t *testing.T) {
	cases := []struct {
		m      *amp.Machine
		lo, hi float64
	}{
		{amp.IntelI912900KF(), 0.6, 0.85},
		{amp.IntelI913900KF(), 0.55, 0.75},
		{amp.AMDRyzen97950X3D(), 0.499, 0.501},
		{amp.AMDRyzen97950X(), 0.499, 0.501},
	}
	for _, tc := range cases {
		p := DefaultProportion(tc.m)
		if p < tc.lo || p > tc.hi {
			t.Errorf("%s: proportion %.3f outside [%.2f, %.2f]", tc.m.Name, p, tc.lo, tc.hi)
		}
	}
}

func TestAutoBase(t *testing.T) {
	short := gen.Spec{Name: "s", Rows: 100, Cols: 100, Dist: gen.ConstLen{L: 3},
		Place: gen.Random, Seed: 1}.Generate()
	if got := AutoBase(short); got != 64 {
		t.Fatalf("short-row base %d, want floor 64", got)
	}
	long := gen.Spec{Name: "l", Rows: 100, Cols: 1000, Dist: gen.ConstLen{L: 50},
		Place: gen.Random, Seed: 1}.Generate()
	if got := AutoBase(long); got != 200 {
		t.Fatalf("long-row base %d, want 200", got)
	}
	if AutoBase(algtest.Matrix("empty-0x0")) != 64 {
		t.Fatal("empty base")
	}
}

// The level-1 split must hand the P-group its configured share of the
// cost, and the level-2 split must balance within each group (the Fig. 9
// flat-bars property).
func TestTwoLevelPartitionShares(t *testing.T) {
	m := amp.IntelI912900KF()
	a := gen.Spec{Name: "p", Rows: 40000, Cols: 40000, TargetNNZ: 800000,
		Dist: gen.NormalLen{Mean: 20, Std: 6, Min: 1, Max: 60}, Place: gen.Clustered, Seed: 8}.Generate()
	prop := 0.7
	prep, err := New(Options{PProportion: prop, Metric: NNZCost}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	var pShare, eShare int
	var pMax, pMin, eMax, eMin = 0, math.MaxInt, 0, math.MaxInt
	for _, reg := range p.Regions() {
		n := reg.Hi - reg.Lo
		g, _ := m.GroupOf(reg.Core)
		if g.Kind == amp.Performance {
			pShare += n
			pMax, pMin = maxi(pMax, n), mini(pMin, n)
		} else {
			eShare += n
			eMax, eMin = maxi(eMax, n), mini(eMin, n)
		}
	}
	gotProp := float64(pShare) / float64(pShare+eShare)
	if math.Abs(gotProp-prop) > 0.01 {
		t.Fatalf("P share %.3f, want %.2f", gotProp, prop)
	}
	// Within-group balance: nnz metric cuts exactly, so slack is tiny.
	if pMax-pMin > 2 || eMax-eMin > 2 {
		t.Fatalf("within-group imbalance: P [%d,%d], E [%d,%d]", pMin, pMax, eMin, eMax)
	}
}

// Cache-line partitioning balances the *cost*, not the nnz: on a matrix
// mixing dense-line rows (many nnz per line) with scattered rows (one nnz
// per line), per-core cache-line cost must be nearly equal even though
// per-core nnz differs widely.
func TestCacheLineBalancesCostNotNNZ(t *testing.T) {
	m := amp.AMDRyzen97950X() // homogeneous: level-1 split is 50/50
	// First half: banded rows of 32 nnz covering ~5 lines each.
	// Second half: scattered rows of 8 nnz covering 8 lines each.
	rows := 8000
	dense := gen.Spec{Name: "d", Rows: rows / 2, Cols: rows, Dist: gen.ConstLen{L: 32},
		Place: gen.Banded, Seed: 1}.Generate()
	scat := gen.Spec{Name: "s", Rows: rows / 2, Cols: rows, Dist: gen.ConstLen{L: 8},
		Place: gen.Random, Seed: 2}.Generate()
	// Stack the two halves.
	rowPtr := make([]int, rows+1)
	copy(rowPtr, dense.RowPtr)
	off := dense.NNZ()
	for i := 0; i <= rows/2; i++ {
		rowPtr[rows/2+i] = off + scat.RowPtr[i]
	}
	a := &sparse.CSR{
		Rows: rows, Cols: rows,
		RowPtr: rowPtr,
		ColIdx: append(append([]int{}, dense.ColIdx...), scat.ColIdx...),
		Val:    append(append([]float64{}, dense.Val...), scat.Val...),
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	prep, err := New(Options{Metric: CacheLineCost, DisableReorder: true}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	cs := costSum(a, p.Format(), CacheLineCost)
	var costMin, costMax = math.MaxInt, 0
	var nnzMin, nnzMax = math.MaxInt, 0
	for _, reg := range p.Regions() {
		// Cost of the region, approximated at row granularity.
		rLo := rowOfPosition(p.Format(), reg.Lo)
		rHi := rowOfPosition(p.Format(), reg.Hi-1) + 1
		c := cs[rHi] - cs[rLo]
		costMin, costMax = mini(costMin, c), maxi(costMax, c)
		n := reg.Hi - reg.Lo
		nnzMin, nnzMax = mini(nnzMin, n), maxi(nnzMax, n)
	}
	costSpread := float64(costMax-costMin) / float64(costMax)
	nnzSpread := float64(nnzMax-nnzMin) / float64(nnzMax)
	if costSpread > 0.12 {
		t.Fatalf("cache-line cost spread %.2f, want balanced", costSpread)
	}
	if nnzSpread < 2*costSpread {
		t.Fatalf("nnz spread %.2f not larger than cost spread %.2f: test matrix not discriminating", nnzSpread, costSpread)
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRegionsExposedAndValid(t *testing.T) {
	m := amp.AMDRyzen97950X3D()
	a := algtest.Matrix("powerlaw")
	prep, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	if err := checkRegions(p.Format(), p.Regions()); err != nil {
		t.Fatal(err)
	}
	if p.Format().Validate(a) != nil {
		t.Fatal("format invalid")
	}
	if len(p.Regions()) != m.TotalCores() {
		t.Fatalf("regions %d, want %d", len(p.Regions()), m.TotalCores())
	}
}

// Assignments must reference only selected cores and merge contiguous
// original rows into few spans when no reorder happened.
func TestAssignmentsSpanMerging(t *testing.T) {
	m := amp.IntelI912900KF()
	a := algtest.Matrix("banded-fem")
	prep, err := New(Options{DisableReorder: true, Metric: NNZCost}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, asg := range prep.Assignments() {
		if len(asg.Spans) > 1 {
			t.Fatalf("identity-order assignment fragmented into %d spans", len(asg.Spans))
		}
	}
	_ = costmodel.Span{}
}

// HASpMV on the simulator must beat the naive even split on Intel — the
// end-to-end version of the costmodel's proportional-split test.
func TestHASpMVBeatsOneLevelOnIntel(t *testing.T) {
	m := amp.IntelI912900KF()
	p := costmodel.DefaultParams()
	a := gen.Spec{Name: "w", Rows: 30000, Cols: 30000, TargetNNZ: 600000,
		Dist: gen.NormalLen{Mean: 20, Std: 6, Min: 1, Max: 60}, Place: gen.Clustered, Seed: 9}.Generate()
	ha, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	one, err := New(Options{OneLevel: true}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	tHA := costmodel.EstimateSpMV(m, p, a, ha.Assignments()).Seconds
	tOne := costmodel.EstimateSpMV(m, p, a, one.Assignments()).Seconds
	if tHA >= tOne {
		t.Fatalf("HASpMV %.4g not faster than one-level %.4g", tHA, tOne)
	}
}
