package core

import (
	"math"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/sparse"
	"haspmv/internal/telemetry/tracing"
)

// xorshift32 is the one pseudo-random stream every differential vector
// is drawn from, so a failure names a reproducible case.
func xorshift32(y uint32) uint32 {
	y ^= y << 13
	y ^= y >> 17
	y ^= y << 5
	return y
}

// diffNV are the batch widths the differential test drives: one vector,
// a partial register block, a full block, a full block plus the width-1
// tail, and two full blocks plus the tail.
var diffNV = []int{1, 2, 7, 8, 9, 17}

// quantized copies a with every value mapped onto five distinct values,
// so the auto value mode engages the palette stream on it.
func quantized(a *sparse.CSR) *sparse.CSR {
	q := *a
	q.Val = make([]float64, len(a.Val))
	for k, v := range a.Val {
		q.Val[k] = float64(int(math.Abs(v)*1e3)%5) - 1.5
	}
	return &q
}

// TestDifferentialAllModes runs every IndexMode × ValueMode × ExecMode
// instance over every entry point — Compute, ComputeTraced and
// ComputeBatch at each width in diffNV — on the algtest battery (plus a
// palette-valued copy of each matrix), before and after a Repartition,
// and checks each result bit for bit against the IndexReference /
// ValueReference / ExecSerial oracle cut at the same proportion and
// moved by the same plan.
func TestDifferentialAllModes(t *testing.T) {
	m := amp.IntelI912900KF()
	indexModes := []IndexMode{IndexAuto, IndexReference, IndexU32, IndexForceDia}
	valueModes := []ValueMode{ValueAuto, ValueReference}
	execModes := []ExecMode{ExecAuto, ExecSerial, ExecSegSum}
	maxNV := diffNV[len(diffNV)-1]

	type matrix struct {
		name string
		a    *sparse.CSR
	}
	var mats []matrix
	for _, tc := range algtest.Battery() {
		mats = append(mats, matrix{tc.Name, tc.A}, matrix{tc.Name + "-palette", quantized(tc.A)})
	}
	for _, mc := range mats {
		a := mc.a
		rng := uint32(0x9e3779b9)
		X := make([][]float64, maxNV)
		for v := range X {
			X[v] = make([]float64, a.Cols)
			for i := range X[v] {
				rng = xorshift32(rng)
				X[v][i] = float64(int32(rng)) / (1 << 28)
			}
		}
		Y := make([][]float64, maxNV)
		want := make([][]float64, maxNV)
		for v := range Y {
			Y[v] = make([]float64, a.Rows)
			want[v] = make([]float64, a.Rows)
		}
		for _, im := range indexModes {
			for _, vm := range valueModes {
				for _, em := range execModes {
					opts := Options{Index: im, Value: vm, Exec: em}
					prep, err := New(opts).Prepare(m, a)
					if err != nil {
						t.Fatalf("%s %+v: Prepare: %v", mc.name, opts, err)
					}
					p := prep.(*Prepared)
					ref := referencePrepared(t, p, a, opts)
					plan := Plan{PProportion: 0.3, Weights: make([]float64, len(p.Regions()))}
					for i := range plan.Weights {
						plan.Weights[i] = 0.5 + float64(i%3)
					}
					for _, stage := range []string{"prepare", "repartition"} {
						if stage == "repartition" {
							if err := p.Repartition(plan); err != nil {
								t.Fatalf("%s %+v: Repartition: %v", mc.name, opts, err)
							}
							if err := ref.Repartition(plan); err != nil {
								t.Fatalf("%s %+v: oracle Repartition: %v", mc.name, opts, err)
							}
						}
						for v := range X {
							ref.Compute(want[v], X[v])
						}
						check := func(entry string, nv int) {
							t.Helper()
							for v := 0; v < nv; v++ {
								for i := range want[v] {
									if math.Float64bits(Y[v][i]) != math.Float64bits(want[v][i]) {
										t.Fatalf("%s idx=%v val=%v exec=%v %s %s nv=%d: y[%d][%d] = %x, oracle %x",
											mc.name, im, vm, em, stage, entry, nv, v, i,
											math.Float64bits(Y[v][i]), math.Float64bits(want[v][i]))
									}
								}
							}
						}
						poison := func(nv int) {
							for v := 0; v < nv; v++ {
								for i := range Y[v] {
									Y[v][i] = math.NaN()
								}
							}
						}
						poison(1)
						p.Compute(Y[0], X[0])
						check("Compute", 1)
						poison(1)
						var bd tracing.ComputeBreakdown
						p.ComputeTraced(Y[0], X[0], &bd)
						check("ComputeTraced", 1)
						for _, nv := range diffNV {
							poison(nv)
							p.ComputeBatch(Y[:nv], X[:nv])
							check("ComputeBatch", nv)
						}
					}
				}
			}
		}
	}
}
