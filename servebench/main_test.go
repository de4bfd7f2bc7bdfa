package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// quickRun runs one toy-size benchmark run and decodes its result line.
func quickRun(t *testing.T, workload, trace string, wrap func(http.Handler) http.Handler) (int, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", trace,
		"--quick", "--out", t.TempDir()}, &out, &errb, wrap)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: exit %d, last line is not a result (%v); stderr:\n%s", workload, trace, code, err, errb.String())
	}
	return code, res
}

// TestQuickPrintsEveryMetric runs every workload at toy size, untraced
// and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json lists for that mode, each with its unit.
func TestQuickPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for trace, want := range map[string][]specMetric{"0": sp.EndToEnd, "1": sp.PerLayer} {
			code, res := quickRun(t, w, trace, nil)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct=%v, %d of %d failed", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// every returns a handler wrapper that lets fault replace the response
// of every period-th multiply.
func every(period int64, fault func(w http.ResponseWriter, r *http.Request, h http.Handler)) func(http.Handler) http.Handler {
	var n atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/multiply" && n.Add(1)%period == 0 {
				fault(w, r, h)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestFaultsAreCounted injects refused requests and corrupted answers
// into serve-small. Both count as failed operations; a corrupted answer
// also makes the run incorrect and its exit code 1.
func TestFaultsAreCounted(t *testing.T) {
	refuse := every(50, func(w http.ResponseWriter, _ *http.Request, _ http.Handler) {
		http.Error(w, "injected", http.StatusInternalServerError)
	})
	code, res := quickRun(t, "serve-small", "0", refuse)
	if code != 0 || !res.Correct || res.Failed < 1 {
		t.Errorf("5xx: exit %d, correct=%v, %d of %d failed; want exit 0, correct, failures counted",
			code, res.Correct, res.Failed, res.Attempted)
	}

	flip := every(50, func(w http.ResponseWriter, r *http.Request, h http.Handler) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var body multiplyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body.Y) == 0 {
			t.Errorf("flip: cannot decode the response: %v", err)
			return
		}
		body.Y[0] = math.Float64frombits(math.Float64bits(body.Y[0]) ^ 1)
		json.NewEncoder(w).Encode(body)
	})
	code, res = quickRun(t, "serve-small", "0", flip)
	if code != 1 || res.Correct || res.Failed < 1 {
		t.Errorf("flipped bit: exit %d, correct=%v, %d of %d failed; want exit 1, incorrect, failures counted",
			code, res.Correct, res.Failed, res.Attempted)
	}
}
