package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"haspmv/internal/telemetry/tracing"
)

// span is one call into a layer, recorded by the benchmark around the
// call (never inside the program). Spans of one request share Req, the
// X-Request-ID the client sends; a span recorded without knowing its
// parent (the server side of a request) is linked after the run to the
// innermost span of the same request that contains it.
type span struct {
	ID     int
	Parent int // 0: root, or not yet linked
	Name   string
	Req    string
	Start  int64 // ns since the tracer's epoch
	End    int64
	WaitNs int64 // time work waited for this layer (batcher queue + linger)
	Failed bool
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// reset drops every span recorded so far and restarts the clock; call it
// with no request in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.epoch = time.Now()
}

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// open records a span whose end is not known yet (a parent), returning
// its id for children; close sets the end.
func (t *tracer) open(name, req string, parent int) int {
	return t.add(span{Name: name, Req: req, Parent: parent, Start: t.now(), End: -1})
}

func (t *tracer) close(id int, failed bool) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Failed = failed
	t.mu.Unlock()
}

// around records a span of name around f.
func (t *tracer) around(name, req string, parent int, f func()) {
	if t == nil {
		f()
		return
	}
	t0 := t.now()
	f()
	t.add(span{Name: name, Req: req, Parent: parent, Start: t0, End: t.now()})
}

// handler wraps h so each request it serves is recorded as a span named
// name, keyed by the request's X-Request-ID.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := t.now()
		cw := &codeWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.add(span{Name: name, Req: r.Header.Get("X-Request-ID"), Start: t0, End: t.now(),
			Failed: cw.code >= 400})
	})
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// joinRecorder turns the server's flight-recorder stage records into
// spans: one batcher.Submit span per multiply (its queue and linger are
// the batcher's wait) with a core.ComputeTraced child. The recorder
// stamps handler admission, not batcher enqueue, so the span starts at
// admission: durations are exact, positions are early by the decode.
func (t *tracer) joinRecorder(snap tracing.Snapshot) {
	if t == nil {
		return
	}
	for _, tr := range snap.Traces {
		if tr.ID == "" || tr.TotalNs == 0 {
			continue
		}
		start := int64(tr.Start.Sub(t.epoch))
		if start < 0 {
			continue // recorded before this tracer existed
		}
		id := t.add(span{Name: "batcher.Submit", Req: tr.ID, Start: start, End: start + tr.TotalNs,
			WaitNs: tr.QueueNs + tr.LingerNs, Failed: tr.Status >= 400 || tr.Err != ""})
		if tr.ComputeNs > 0 {
			c0 := start + tr.QueueNs + tr.LingerNs
			t.add(span{Name: "core.ComputeTraced", Req: tr.ID, Parent: id, Start: c0, End: c0 + tr.ComputeNs})
		}
	}
}

// link gives every unlinked request span the innermost other span of
// the same request that contains it.
func (t *tracer) link() {
	byReq := map[string][]int{}
	for i, s := range t.spans {
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 || s.Req == "" {
			continue
		}
		best, bestDur := 0, int64(-1)
		for _, j := range byReq[s.Req] {
			p := t.spans[j]
			// A layer never nests in itself: the two shard requests of a
			// scattered multiply overlap but are siblings.
			if p.Name == s.Name || p.Start > s.Start || p.End < s.End {
				continue
			}
			if d := p.End - p.Start; bestDur < 0 || d < bestDur {
				best, bestDur = p.ID, d
			}
		}
		s.Parent = best
	}
}

// layerRow aggregates the spans of one layer.
type layerRow struct {
	Name            string
	Count, Failures int
	SelfNs, WaitNs  int64
	TotalNs         int64
}

// layers computes per-layer self time: each span's duration minus the
// union of the intervals its children cover.
func (t *tracer) layers() []layerRow {
	t.link()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.Count++
		r.TotalNs += dur
		r.WaitNs += s.WaitNs
		r.SelfNs += dur - covered(children[s.ID], s.Start, s.End)
		if s.Failed {
			r.Failures++
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur0, cur1 := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur1 {
			total += cur1 - cur0
			cur0, cur1 = a, b
		} else if b > cur1 {
			cur1 = b
		}
	}
	return total + cur1 - cur0
}

// writeLayerTable prints the per-layer table: calls, mean self and wait
// time, total time and failures.
func writeLayerTable(w io.Writer, rows []layerRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tcount\tself_us/call\twait_us/call\ttotal_us/call\tfailures")
	for _, r := range rows {
		n := float64(r.Count)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%d\n", r.Name, r.Count,
			float64(r.SelfNs)/1e3/n, float64(r.WaitNs)/1e3/n, float64(r.TotalNs)/1e3/n, r.Failures)
	}
	tw.Flush()
}

// chromeEvent is one Chrome trace_event entry, the format
// internal/telemetry writes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span once, as Chrome trace-event JSON with
// one track per layer.
func (t *tracer) writeChrome(path string) error {
	tids := map[string]int{}
	var evs []chromeEvent
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		tid, ok := tids[s.Name]
		if !ok {
			tid = len(tids) + 1
			tids[s.Name] = tid
			evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.Name}})
		}
		args := map[string]any{"span": s.ID, "parent": s.Parent}
		if s.Req != "" {
			args["request_id"] = s.Req
		}
		if s.WaitNs > 0 {
			args["wait_us"] = float64(s.WaitNs) / 1e3
		}
		if s.Failed {
			args["failed"] = true
		}
		evs = append(evs, chromeEvent{Name: s.Name, Cat: "servebench", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: tid, Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
