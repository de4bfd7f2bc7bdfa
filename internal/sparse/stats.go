package sparse

import (
	"fmt"
	"math"
	"sort"
)

// RowStats summarizes the row-length distribution of a matrix. The paper's
// Table II reports exactly (#rows, nnz, min/avg/max nnz per row); the
// extra moments feed the partitioning heuristics and corpus reports.
type RowStats struct {
	Rows      int
	Cols      int
	NNZ       int
	MinRowLen int
	MaxRowLen int
	AvgRowLen float64
	StdRowLen float64
	// MedianRowLen is the 50th percentile of row lengths.
	MedianRowLen int
	// EmptyRows counts rows with no stored entries.
	EmptyRows int
	// Gini is the Gini coefficient of the row-length distribution,
	// a scale-free irregularity measure: 0 for perfectly even rows,
	// approaching 1 for power-law matrices such as webbase-1M.
	Gini float64
}

// ComputeRowStats scans the matrix once and returns its row statistics.
func ComputeRowStats(a *CSR) RowStats {
	s := RowStats{Rows: a.Rows, Cols: a.Cols, NNZ: a.NNZ()}
	if a.Rows == 0 {
		return s
	}
	lens := make([]int, a.Rows)
	s.MinRowLen = math.MaxInt
	sum := 0
	for i := 0; i < a.Rows; i++ {
		l := a.RowLen(i)
		lens[i] = l
		sum += l
		if l < s.MinRowLen {
			s.MinRowLen = l
		}
		if l > s.MaxRowLen {
			s.MaxRowLen = l
		}
		if l == 0 {
			s.EmptyRows++
		}
	}
	s.AvgRowLen = float64(sum) / float64(a.Rows)
	varSum := 0.0
	for _, l := range lens {
		d := float64(l) - s.AvgRowLen
		varSum += d * d
	}
	s.StdRowLen = math.Sqrt(varSum / float64(a.Rows))
	sort.Ints(lens)
	s.MedianRowLen = lens[a.Rows/2]
	// Gini over the sorted lengths: G = (2*sum(i*x_i))/(n*sum(x)) - (n+1)/n.
	if sum > 0 {
		weighted := 0.0
		for i, l := range lens {
			weighted += float64(i+1) * float64(l)
		}
		n := float64(a.Rows)
		s.Gini = 2*weighted/(n*float64(sum)) - (n+1)/n
	}
	return s
}

// String renders the stats in the style of the paper's Table II rows.
func (s RowStats) String() string {
	return fmt.Sprintf("%dx%d nnz=%d rowlen(min=%d avg=%.1f max=%d) empty=%d gini=%.3f",
		s.Rows, s.Cols, s.NNZ, s.MinRowLen, s.AvgRowLen, s.MaxRowLen, s.EmptyRows, s.Gini)
}

// RowLengths returns the per-row nonzero counts.
func RowLengths(a *CSR) []int {
	lens := make([]int, a.Rows)
	for i := range lens {
		lens[i] = a.RowLen(i)
	}
	return lens
}

// Bandwidth returns the matrix bandwidth: max over nonzeros of |i - j|.
// Banded FEM matrices have small bandwidth; power-law matrices do not.
func Bandwidth(a *CSR) int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := a.ColIdx[k] - i
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// Density returns nnz / (rows*cols), or 0 for an empty shape.
func Density(a *CSR) float64 {
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	return float64(a.NNZ()) / (float64(a.Rows) * float64(a.Cols))
}
