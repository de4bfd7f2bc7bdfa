package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haspmv/internal/amp"
	"haspmv/internal/bench"
	"haspmv/internal/mmio"
	"haspmv/internal/sparse"

	haspmvcore "haspmv/internal/core"
)

func writeTestMatrix(t *testing.T) string {
	t.Helper()
	a := sparse.FromDense([][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	}, 0)
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := mmio.WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInfoAndConvert(t *testing.T) {
	path := writeTestMatrix(t)
	if err := run([]string{path}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.mtx")
	if err := run([]string{"-convert", out, path}); err != nil {
		t.Fatal(err)
	}
	a, err := mmio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 7 {
		t.Fatalf("converted nnz %d", a.NNZ())
	}
}

// runCaptured runs mminfo with args and returns what it printed.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf strings.Builder
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

func TestDiagAndValueLines(t *testing.T) {
	out := runCaptured(t, writeTestMatrix(t))
	// The 3x3 tridiagonal test matrix: 3 diagonals carry all nnz, every
	// row is one contiguous run, values {4,-1} are palette eligible.
	for _, want := range []string{
		"diagonals=3", "top8-diag-nnz=100.0%", "runs=3",
		"distinct-values=2", "palette-eligible=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSpMVMode(t *testing.T) {
	path := writeTestMatrix(t)
	if err := run([]string{"-spmv", "-machine", "7950X3D", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spmv", "-machine", "vax", path}); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

// The -spmv report lists every method the benchmark compares on the
// chosen machine and the Prepare defaults it would use for the matrix:
// the level-1 P proportion and the length-sort base.
func TestSpMVReport(t *testing.T) {
	path := writeTestMatrix(t)
	a, err := mmio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"i9-12900KF", "7950X3D"} {
		m, ok := amp.ByName(name)
		if !ok {
			t.Fatalf("unknown machine %q", name)
		}
		out := runCaptured(t, "-spmv", "-machine", name, path)
		want := []string{
			"# modeled SpMV on " + m.Name,
			fmt.Sprintf("auto P-proportion: %.3f, auto base: %d",
				haspmvcore.ProportionFor(m, a), haspmvcore.AutoBase(a)),
		}
		for _, alg := range bench.AlgorithmsFor(m) {
			want = append(want, "\n"+alg.Name()+" ")
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: output missing %q:\n%s", name, w, out)
			}
		}
	}
}

// The index and row-skew lines of the 3x3 tridiagonal test matrix: its
// longest row holds 3 of 7 nonzeros and spans columns 0..2, and on the
// 16-core i9-12900KF an equal-nnz split cuts all three rows, so the
// dispatch predicts segmented-sum execution.
func TestIndexAndSkewLines(t *testing.T) {
	out := runCaptured(t, writeTestMatrix(t))
	for _, want := range []string{
		"max-row-col-span=2", "u16-delta-rows=3/3",
		"max-row-nnz=3 mean-row-nnz=2.33 hub-share=42.9%",
		"spanning-rows@16cores=3 exec=segsum",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"/definitely/missing.mtx"}); err == nil {
		t.Fatal("nonexistent file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.mtx")
	if err := os.WriteFile(bad, []byte("not a matrix"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}); err == nil || !strings.Contains(err.Error(), "Matrix Market") {
		t.Fatalf("malformed file: %v", err)
	}
}
