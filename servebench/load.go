package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outcome is one operation's result as the load generator saw it.
type outcome struct {
	Lat      time.Duration
	Err      error // failed or refused; with Mismatch, what differed
	Mismatch bool  // completed, but the result is not bit-identical
	Flops    float64
	Y        []float64 // the decoded answer
}

// loadStats summarizes one closed-loop phase.
type loadStats struct {
	Attempted, Failed, Mismatched int64
	FirstProblem                  string
	Wall                          time.Duration
	CPU                           time.Duration // process user+sys
	// Steal is the share of the host's CPU time the hypervisor stole
	// during the phase (-1 when the kernel does not report it).
	Steal   float64
	Samples []sample // the successful operations
}

// sample is one successful operation: when it finished (since the phase
// began), how long it took and the flops it performed.
type sample struct {
	End, Lat time.Duration
	Flops    float64
}

// lats returns the latencies of samples.
func lats(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.Lat
	}
	return out
}

// closedLoop runs clients goroutines, each issuing its next operation as
// soon as the previous one returns, until d has elapsed (every client
// finishes the operation in flight). At least minOps operations run per
// client.
func closedLoop(clients int, d time.Duration, minOps int, op func(client, seq int) outcome) loadStats {
	var st loadStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	steal0, total0 := hostTicks()
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local loadStats
			for seq := 0; seq < minOps || time.Now().Before(deadline); seq++ {
				o := op(c, seq)
				local.Attempted++
				switch {
				case o.Mismatch:
					local.Failed++
					local.Mismatched++
					if local.FirstProblem == "" {
						local.FirstProblem = fmt.Sprintf("client %d op %d: result is not bit-identical to the reference", c, seq)
						if o.Err != nil {
							local.FirstProblem = o.Err.Error()
						}
					}
				case o.Err != nil:
					local.Failed++
					if local.FirstProblem == "" {
						local.FirstProblem = o.Err.Error()
					}
				default:
					local.Samples = append(local.Samples, sample{End: time.Since(t0), Lat: o.Lat, Flops: o.Flops})
				}
			}
			mu.Lock()
			st.Attempted += local.Attempted
			st.Failed += local.Failed
			st.Mismatched += local.Mismatched
			if st.FirstProblem == "" {
				st.FirstProblem = local.FirstProblem
			}
			st.Samples = append(st.Samples, local.Samples...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	st.Wall = time.Since(t0)
	st.CPU = cpuTime() - cpu0
	st.Steal = -1
	if steal1, total1 := hostTicks(); total1 > total0 {
		st.Steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return st
}

// hostTicks reads the host-wide steal and total CPU ticks from
// /proc/stat (zeros where it is not readable). Steal is reported next to
// the results: on a shared host it explains most run-to-run spread.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentileMs returns the nearest-rank p-quantile (0 < p <= 1) of ds in
// milliseconds; ds is sorted in place.
func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(p*float64(len(ds)))) - 1
	k = max(0, min(k, len(ds)-1))
	return float64(ds[k].Nanoseconds()) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeReps calls f at least minReps times and until minDur has passed
// (at most maxReps times) and returns the median call time in ns.
func timeReps(minReps, maxReps int, minDur time.Duration, f func() error) (float64, error) {
	var ns []float64
	t0 := time.Now()
	for len(ns) < minReps || (time.Since(t0) < minDur && len(ns) < maxReps) {
		s := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(s).Nanoseconds()))
	}
	return median(ns), nil
}

// multiplyRequest is the wire request of POST /v1/multiply as the load
// generator encodes it.
type multiplyRequest struct {
	Matrix     string    `json:"matrix"`
	Scale      int       `json:"scale"`
	X          []float64 `json:"x"`
	ShardIndex int       `json:"shard_index,omitempty"`
	ShardCount int       `json:"shard_count,omitempty"`
}

type multiplyResponse struct {
	Y []float64 `json:"y"`
}

// task is one multiply the load generator may send: the request and the
// y every answer must reproduce bit for bit.
type task struct {
	Matrix string
	Scale  int
	X      []float64
	Ref    []float64
	Flops  float64 // 2·nnz
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
	id  int
	tr  *tracer
}

func newClient(id int, addr string, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		url: "http://" + addr + "/v1/multiply",
		id:  id,
		tr:  tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// multiply sends one request and checks the answer. Latency runs from
// the start of encoding to the end of decoding.
func (c *client) multiply(t *task, seq int) outcome {
	var reqID string
	var root int
	if c.tr != nil {
		reqID = fmt.Sprintf("c%d-%d", c.id, seq)
		root = c.tr.open("client.request", reqID, 0)
	}
	t0 := time.Now()
	var body []byte
	var err error
	c.tr.around("client.encode", reqID, root, func() {
		body, err = json.Marshal(multiplyRequest{Matrix: t.Matrix, Scale: t.Scale, X: t.X})
	})
	var resp []byte
	if err == nil {
		c.tr.around("http.roundtrip", reqID, root, func() { resp, err = c.post(body, reqID) })
	}
	var out multiplyResponse
	if err == nil {
		c.tr.around("client.decode", reqID, root, func() { err = json.Unmarshal(resp, &out) })
	}
	lat := time.Since(t0)
	c.tr.close(root, err != nil)
	if err != nil {
		return outcome{Err: err}
	}
	return outcome{Lat: lat, Mismatch: !sameBits(out.Y, t.Ref), Flops: t.Flops, Y: out.Y}
}

// post sends a pre-encoded body and returns the response body of a 200.
func (c *client) post(body []byte, reqID string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// listener is one HTTP server on a loopback port.
type listener struct {
	Addr string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{Addr: ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln)
	}()
	return l, nil
}

// stop closes the listener and its connections and waits for Serve to
// return.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// dialMap is a transport that dials fixed backend names to loopback
// addresses, so the fleet router's hash ring sees the same backend names
// on every run whatever ports the workers got.
func dialMap(names map[string]string) *http.Transport {
	var d net.Dialer
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := names[addr]; ok {
				addr = a
			}
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}
}
