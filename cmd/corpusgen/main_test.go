package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"haspmv/internal/mmio"
)

func TestCorpusGeneration(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-dir", dir, "-n", "3", "-maxnnz", "4000"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("files: %d", len(entries))
	}
	a, err := mmio.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepresentativeGeneration(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-dir", dir, "-representative", "-scale", "256"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 22 {
		t.Fatalf("files: %d, want the 22 Table II matrices", len(entries))
	}
}

func TestStencilGeneration(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-dir", dir, "-stencil", "-rows", "2000", "-cols", "2000",
		"-diags", "9", "-noise", "0.01", "-palette", "4"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	a, err := mmio.ReadFile(filepath.Join(dir, "stencil-2000x2000-d9.mtx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, v := range a.Val {
		distinct[v] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("palette 4 produced %d distinct values", len(distinct))
	}
}

func TestZipfGeneration(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-dir", dir, "-zipf", "-rows", "3000", "-cols", "2000", "-nnz", "12000"}); err != nil {
		t.Fatal(err)
	}
	a, err := mmio.ReadFile(filepath.Join(dir, "zipf-3000x2000-12000.mtx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3000 || a.Cols != 2000 || a.NNZ() != 12000 {
		t.Fatalf("zipf matrix %dx%d nnz %d, want 3000x2000 nnz 12000 (exact)", a.Rows, a.Cols, a.NNZ())
	}
}

// A fixed -seed writes the same file on every run, and another seed
// writes a different one: corpora are reproducible by their flags.
func TestGenerationDeterministic(t *testing.T) {
	gen := func(seed string) []byte {
		dir := t.TempDir()
		args := []string{"-dir", dir, "-stencil", "-rows", "1500", "-cols", "1500",
			"-diags", "5", "-fill", "0.7", "-noise", "0.05", "-seed", seed}
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "stencil-1500x1500-d5.mtx"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := gen("7"), gen("7"), gen("8")
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed wrote different files")
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 wrote the same file")
	}
}

func TestFlagErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -dir accepted")
	}
	if err := run([]string{"-dir", "/proc/definitely/not/writable"}); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}
