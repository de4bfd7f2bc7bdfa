package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/gen"
	"haspmv/internal/kernel"
)

// TestServeSweepSmall exercises the sweep end to end on a small matrix:
// both modes run, responses are verified bit-identical inside the sweep,
// and the rows render to text and CSV.
func TestServeSweepSmall(t *testing.T) {
	cfg := TestConfig()
	m := amp.IntelI912900KF()
	rows, err := ServeSweep(cfg, m, "dawson5", 8, 3, []time.Duration{0, 200 * time.Microsecond})
	if err != nil {
		t.Fatalf("ServeSweep: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want solo + 2 coalesced", len(rows))
	}
	if rows[0].Mode != "solo" || rows[1].Mode != "coalesced" || rows[2].Mode != "coalesced" {
		t.Fatalf("row modes %q %q %q", rows[0].Mode, rows[1].Mode, rows[2].Mode)
	}
	for _, r := range rows {
		if r.Requests != 8*3 {
			t.Fatalf("%s: %d requests, want 24", r.Mode, r.Requests)
		}
		if r.RPS <= 0 || r.P50Us <= 0 || r.P99Us < r.P50Us {
			t.Fatalf("%s: implausible row %+v", r.Mode, r)
		}
		// Stage attribution: solo has no batcher so no stages; coalesced
		// rows must attribute each request's lifetime to the four stages,
		// with a nonzero compute share and a sum that stays within the
		// client-observed latency envelope (client observations add only
		// submit/wakeup overhead on top of the batcher's accounting).
		if r.Mode == "solo" {
			if r.StageSumUs() != 0 {
				t.Fatalf("solo row has stage attribution %+v", r)
			}
			continue
		}
		if r.ComputeUs <= 0 {
			t.Fatalf("coalesced row attributes no compute time: %+v", r)
		}
		if sum := r.StageSumUs(); sum <= 0 || sum > r.P99Us*1.10 {
			t.Fatalf("coalesced stage sum %.0fus outside (0, p99 %.0fus + 10%%]: %+v", sum, r.P99Us, r)
		}
	}

	var buf bytes.Buffer
	a := gen.Representative("dawson5", cfg.RepScale)
	PrintServe(&buf, m, "dawson5", a.NNZ(), rows)
	if !strings.Contains(buf.String(), "coalesced/solo throughput") {
		t.Fatalf("PrintServe output missing summary:\n%s", buf.String())
	}
	buf.Reset()
	if err := ServeCSV(&buf, m.Name, "dawson5", rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(rows)+1 {
		t.Fatalf("CSV has %d lines, want %d", lines, len(rows)+1)
	}
}

// TestServeCoalescingThroughputTarget is the acceptance load test in
// its deterministic form: 64 concurrent closed-loop clients on a
// >=1M-nnz matrix, every response bit-identical to serial Multiply
// (ServeSweep fails on any mismatch). The coalescing window is held
// open far longer than any flush can take to fill, so every flush is
// size-triggered: 256 requests must leave in exactly 32 flushes of
// kernel.MaxBlock, whatever the host's speed or load. The wall-clock
// throughput gate is TestServeCoalescingThroughputWallClock.
func TestServeCoalescingThroughputTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("load test in -short mode")
	}
	const clients, perClient = 64, 4
	cfg := DefaultConfig()
	cfg.RepScale = 2
	a := gen.Representative("shipsec1", cfg.RepScale)
	if nnz := a.NNZ(); nnz < 1_000_000 {
		t.Fatalf("load-test matrix has %d nnz, need >= 1M", nnz)
	}
	rows, err := ServeSweep(cfg, amp.IntelI912900KF(), "shipsec1", clients, perClient, []time.Duration{time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var co *ServeRow
	for i := range rows {
		if rows[i].Mode == "coalesced" {
			co = &rows[i]
		}
	}
	if co == nil {
		t.Fatalf("sweep has no coalesced row: %+v", rows)
	}
	if co.Requests != clients*perClient {
		t.Fatalf("coalesced row served %d requests, want %d", co.Requests, clients*perClient)
	}
	// MeanBatch is served requests over flushes, so an exact 8 means
	// exactly 256/8 = 32 flushes, each full.
	if co.MeanBatch != kernel.MaxBlock {
		t.Fatalf("mean batch %.3f over %d requests, want every flush full at %d", co.MeanBatch, co.Requests, kernel.MaxBlock)
	}
}

// TestServeCoalescingThroughputWallClock is the wall-clock form of the
// acceptance load test: coalesced serving must reach at least 1.15x the
// throughput of uncoordinated solo Computes. shipsec1 at scale 2 keeps
// ~3.9M of the published 7.8M nonzeros; its banded structure is
// stream-dominated, so coalescing amortizes the structure stream across
// up to 8 requests. The generated matrix's bands are perfectly
// contiguous, so auto format selection runs it on diagonal run
// descriptors through the contiguous single-run kernels — that shrank
// the shareable index stream from 4 to ~0.9 bytes per nonzero and sped
// solo compute up, so the coalescing headroom that once measured well
// past 2x is down to ~1.3x standalone, hence best-of-3 at 1.15x. The
// ratio needs a quiet host, so it runs only in the serialized
// bench-gate CI job (HASPMV_TIMING_GATE=1), not under a parallel
// go test ./...
func TestServeCoalescingThroughputWallClock(t *testing.T) {
	if os.Getenv("HASPMV_TIMING_GATE") == "" {
		t.Skip("wall-clock gate: set HASPMV_TIMING_GATE=1 on a quiet host")
	}
	cfg := DefaultConfig()
	cfg.RepScale = 2
	m := amp.IntelI912900KF()

	// Best of three attempts to damp scheduler noise on loaded hosts;
	// the margin over the gate is real but not far larger than
	// run-to-run variance now that descriptors thinned the shareable
	// stream.
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		rows, err := ServeSweep(cfg, m, "shipsec1", 64, 4, []time.Duration{200 * time.Microsecond})
		if err != nil {
			t.Fatalf("ServeSweep attempt %d: %v", attempt, err)
		}
		s := ServeSpeedup(rows)
		t.Logf("attempt %d: %+v speedup %.2fx", attempt, rows, s)
		if s > best {
			best = s
		}
		if best >= 1.15 {
			break
		}
	}
	if best < 1.15 {
		t.Fatalf("coalesced serving reached only %.2fx of solo throughput, want >= 1.15x", best)
	}
}
