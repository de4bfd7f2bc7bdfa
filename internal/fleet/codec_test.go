package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"haspmv/internal/fleet/shard"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
	"haspmv/internal/wire"
)

// testPlan is a 4-shard plan over 6 rows and 10 columns with every
// ownership case: row 2 is cut across three shards (shard 1 holds only
// a middle piece of it), row 5 starts a clean cut, and column 9 lies in
// no shard's window.
var testPlan = []shard.Desc{
	{Index: 0, Count: 4, Row0: 0, Row1: 2, SplitLast: true, ColLo: 0, ColHi: 4},
	{Index: 1, Count: 4, Row0: 2, Row1: 2, SplitFirst: true, SplitLast: true, ColLo: 3, ColHi: 6},
	{Index: 2, Count: 4, Row0: 2, Row1: 4, SplitFirst: true, ColLo: 5, ColHi: 8},
	{Index: 3, Count: 4, Row0: 5, Row1: 5, ColLo: 8, ColHi: 9},
}

const testRows, testCols = 6, 10

// workerResponse is the worker's multiply response shape.
type workerResponse struct {
	Matrix     string    `json:"matrix"`
	Scale      int       `json:"scale"`
	Rows       int       `json:"rows"`
	Cols       int       `json:"cols"`
	BatchNV    int       `json:"batch_nv"`
	Y          []float64 `json:"y"`
	ShardIndex int       `json:"shard_index,omitempty"`
	ShardCount int       `json:"shard_count,omitempty"`
	Row0       int       `json:"row0,omitempty"`
}

// goodFragment is shard d's well-formed answer with the given y.
func goodFragment(d shard.Desc, y []float64) []byte {
	b, err := json.Marshal(workerResponse{Matrix: "m", Scale: 1, Rows: d.Rows(), Cols: d.Cols(), BatchNV: 1,
		Y: y, ShardIndex: d.Index, ShardCount: d.Count, Row0: d.Row0})
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// fragmentYs draws per-shard y values over the float rule's edges.
func fragmentYs(seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	edge := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, -3.5, 4.9e-324, 1e300}
	ys := make([][]float64, len(testPlan))
	for k, d := range testPlan {
		for r := 0; r < d.Rows(); r++ {
			v := edge[rng.Intn(len(edge))]
			if rng.Intn(2) == 0 {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
			}
			ys[k] = append(ys[k], v)
		}
	}
	return ys
}

// fakeShardWorker serves testPlan (or the plan set by setPlan) and
// answers shard i with reply(i). It records the x each shard received.
type fakeShardWorker struct {
	*httptest.Server
	mu    sync.Mutex
	plan  []shard.Desc
	reply func(i int) []byte
	got   map[int][]float64
}

func newFakeShardWorker(t *testing.T) *fakeShardWorker {
	f := &fakeShardWorker{got: map[int][]float64{}}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shardplan" {
			f.mu.Lock()
			plan := f.plan
			f.mu.Unlock()
			if plan == nil {
				plan = testPlan
			}
			json.NewEncoder(w).Encode(map[string]any{"shards": plan})
			return
		}
		var req struct {
			ShardIndex int       `json:"shard_index"`
			X          []float64 `json:"x"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.got[req.ShardIndex] = req.X
		reply := f.reply
		f.mu.Unlock()
		w.Write(reply(req.ShardIndex))
	}))
	t.Cleanup(f.Close)
	return f
}

func (f *fakeShardWorker) set(reply func(i int) []byte) {
	f.mu.Lock()
	f.reply = reply
	f.mu.Unlock()
}

func (f *fakeShardWorker) setPlan(plan []shard.Desc) {
	f.mu.Lock()
	f.plan = plan
	f.mu.Unlock()
}

func newShardRouter(t *testing.T, backend string) *Router {
	rt, err := NewRouter(RouterOptions{
		Backends: func() []string { return []string{backend} },
		Shards:   map[string]int{"m@1": len(testPlan)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func testBody(x []string) string {
	return `{"matrix":"m","scale":1,"x":[` + strings.Join(x, ",") + `]}`
}

func onesX() []string {
	x := make([]string, testCols)
	for i := range x {
		x[i] = strconv.Itoa(i + 1)
	}
	return x
}

// oldRouterResponse is the bytes the router wrote before it spliced
// text: fragments decoded, gathered, and the response marshalled from a
// map.
func oldRouterResponse(t *testing.T, ys [][]float64) []byte {
	t.Helper()
	y := make([]float64, testRows)
	if err := shard.Gather(y, testPlan, ys); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(map[string]any{
		"matrix": "m", "scale": 1, "rows": testRows, "cols": testCols,
		"shard_count": len(testPlan), "y": y,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRouterGatherBytes: the spliced response is byte-identical to the
// old decode-gather-marshal response, and each shard received exactly
// its column window of x.
func TestRouterGatherBytes(t *testing.T) {
	fw := newFakeShardWorker(t)
	rt := newShardRouter(t, workerAddr(fw.Server))
	for seed := int64(0); seed < 20; seed++ {
		ys := fragmentYs(seed)
		fw.set(func(i int) []byte { return goodFragment(testPlan[i], ys[i]) })
		w, _ := postMultiply(t, rt, testBody(onesX()))
		if w.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d body %s", seed, w.Code, w.Body.String())
		}
		if want := oldRouterResponse(t, ys); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("seed %d:\n got %s\nwant %s", seed, w.Body.Bytes(), want)
		}
	}
	for i, d := range testPlan {
		for c, v := range fw.got[i] {
			if v != float64(d.ColLo+c+1) || len(fw.got[i]) != d.Cols() {
				t.Fatalf("shard %d received x %v, want columns [%d,%d)", i, fw.got[i], d.ColLo, d.ColHi)
			}
		}
	}
}

// TestRouterRejectsHostileFragments: a 200 whose fragment is malformed
// or disagrees with the plan is a 502, and no y is assembled from it.
func TestRouterRejectsHostileFragments(t *testing.T) {
	fw := newFakeShardWorker(t)
	rt := newShardRouter(t, workerAddr(fw.Server))
	ys := fragmentYs(1)
	good := func(i int) []byte { return goodFragment(testPlan[i], ys[i]) }
	resp := func(d shard.Desc, edit func(*workerResponse)) []byte {
		r := workerResponse{Matrix: "m", Scale: 1, Y: ys[d.Index], ShardIndex: d.Index, ShardCount: d.Count, Row0: d.Row0}
		edit(&r)
		b, _ := json.Marshal(r)
		return b
	}
	for name, bad := range map[string]func(d shard.Desc) []byte{
		"wrong shard_index": func(d shard.Desc) []byte { return resp(d, func(r *workerResponse) { r.ShardIndex = 3 }) },
		"wrong shard_count": func(d shard.Desc) []byte { return resp(d, func(r *workerResponse) { r.ShardCount = 5 }) },
		"wrong row0":        func(d shard.Desc) []byte { return resp(d, func(r *workerResponse) { r.Row0 = 1 }) },
		"short y":           func(d shard.Desc) []byte { return resp(d, func(r *workerResponse) { r.Y = r.Y[1:] }) },
		"long y":            func(d shard.Desc) []byte { return resp(d, func(r *workerResponse) { r.Y = append(r.Y, 1) }) },
		"null y":            func(d shard.Desc) []byte { return resp(d, func(r *workerResponse) { r.Y = nil }) },
		"missing y":         func(d shard.Desc) []byte { return []byte(`{"shard_index":1,"shard_count":4,"row0":2}`) },
		"null in y":         func(d shard.Desc) []byte { return []byte(`{"y":[1,null,3],"shard_index":1,"shard_count":4,"row0":2}`) },
		"string in y":       func(d shard.Desc) []byte { return []byte(`{"y":["1"],"shard_index":1,"shard_count":4,"row0":2}`) },
		"overflow in y":     func(d shard.Desc) []byte { return []byte(`{"y":[1e400],"shard_index":1,"shard_count":4,"row0":2}`) },
		"y not an array":    func(d shard.Desc) []byte { return []byte(`{"y":7,"shard_index":1,"shard_count":4,"row0":2}`) },
		"not JSON":          func(d shard.Desc) []byte { return []byte(`<html>oops</html>`) },
		"empty":             func(d shard.Desc) []byte { return nil },
		"truncated":         func(d shard.Desc) []byte { return []byte(`{"y":[1`) },
		"trailing data":     func(d shard.Desc) []byte { return []byte(`{"y":[1],"shard_index":1,"shard_count":4,"row0":2} {}`) },
		"bad row0 type":     func(d shard.Desc) []byte { return []byte(`{"y":[1],"shard_index":1,"shard_count":4,"row0":"2"}`) },
	} {
		fw.set(func(i int) []byte {
			if i == 1 {
				return bad(testPlan[1])
			}
			return good(i)
		})
		w, _ := postMultiply(t, rt, testBody(onesX()))
		if w.Code != http.StatusBadGateway || strings.Contains(w.Body.String(), `"y"`) {
			t.Errorf("%s: status %d body %s, want 502 without y", name, w.Code, w.Body.String())
		}
	}
}

// TestRouterRejectsBadPlan: a worker's shard plan that the gather
// cannot walk is a 502 and is not cached — the router neither panics
// nor assembles y from it, and serves again once the plan is sound.
func TestRouterRejectsBadPlan(t *testing.T) {
	fw := newFakeShardWorker(t)
	ys := fragmentYs(4)
	fw.set(func(i int) []byte {
		if i < 0 || i >= len(ys) {
			return nil
		}
		return goodFragment(testPlan[i], ys[i])
	})
	for name, edit := range map[string]func(p []shard.Desc){
		"index past count":  func(p []shard.Desc) { p[1].Index = 7 },
		"negative index":    func(p []shard.Desc) { p[1].Index = -1 },
		"wrong count":       func(p []shard.Desc) { p[2].Count = 3 },
		"empty window":      func(p []shard.Desc) { p[1].ColLo = p[1].ColHi },
		"inverted window":   func(p []shard.Desc) { p[2].ColLo, p[2].ColHi = 8, 5 },
		"negative window":   func(p []shard.Desc) { p[0].ColLo = -2 },
		"row gap":           func(p []shard.Desc) { p[3].Row0, p[3].Row1 = 6, 6 },
		"row overlap":       func(p []shard.Desc) { p[3].Row0 = 3 },
		"negative first":    func(p []shard.Desc) { p[0].Row0 = -1 },
		"first row skipped": func(p []shard.Desc) { p[0].Row0 = 1 },
		"negative rows":     func(p []shard.Desc) { p[3].Row1 = 3 },
	} {
		plan := append([]shard.Desc(nil), testPlan...)
		edit(plan)
		fw.setPlan(plan)
		rt := newShardRouter(t, workerAddr(fw.Server))
		w, _ := postMultiply(t, rt, testBody(onesX()))
		if w.Code != http.StatusBadGateway || strings.Contains(w.Body.String(), `"y"`) {
			t.Errorf("%s: status %d body %s, want 502 without y", name, w.Code, w.Body.String())
		}
		fw.setPlan(nil)
		if w, _ := postMultiply(t, rt, testBody(onesX())); w.Code != http.StatusOK {
			t.Errorf("%s: after the plan is sound again: status %d body %s", name, w.Code, w.Body.String())
		}
	}
	fw.setPlan(testPlan[:3])
	if w, _ := postMultiply(t, newShardRouter(t, workerAddr(fw.Server)), testBody(onesX())); w.Code != http.StatusBadGateway {
		t.Errorf("3-shard plan for 4 shards: status %d, want 502", w.Code)
	}
}

// TestRouterBoundsUpstreamBodies: a worker that declares a huge
// Content-Length (and sends a few bytes) costs the router a bounded
// buffer and becomes a 502, on the plain and the sharded path and for
// the shard plan; the router keeps serving.
func TestRouterBoundsUpstreamBodies(t *testing.T) {
	for _, length := range []int64{1 << 40, 1 << 62} {
		liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
			w.Write([]byte(`{"shards":[`))
		}))
		for _, shards := range []map[string]int{nil, {"m@1": len(testPlan)}} {
			rt, err := NewRouter(RouterOptions{
				Backends: func() []string { return []string{workerAddr(liar)} },
				Shards:   shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				if w, _ := postMultiply(t, rt, testBody(onesX())); w.Code != http.StatusBadGateway {
					t.Errorf("Content-Length %d, shards %v: status %d body %s, want 502", length, shards, w.Code, w.Body.String())
				}
			}
		}
		liar.Close()
	}
}

// TestRouterBoundsClientPresize: a client that declares a large body
// and sends none makes the router presize at most a small buffer.
func TestRouterBoundsClientPresize(t *testing.T) {
	rt := newShardRouter(t, "127.0.0.1:1")
	body := &firstReadProbe{}
	req := httptest.NewRequest(http.MethodPost, "/v1/multiply", body)
	req.ContentLength = maxBodyBytes
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || body.first == 0 || body.first > 1<<20 {
		t.Fatalf("status %d, first read of %d bytes; want 400 and a read buffer of at most 1 MiB", w.Code, body.first)
	}
}

// firstReadProbe is an empty body that records the buffer size of the
// first Read, which is the reader's presized allocation.
type firstReadProbe struct{ first int }

func (p *firstReadProbe) Read(b []byte) (int, error) {
	if p.first == 0 {
		p.first = len(b)
	}
	return 0, io.EOF
}

// TestRouterNonFiniteIs422: cut-row pieces that sum past float64 range
// make a 422 naming the row, not a 200 with an empty body.
func TestRouterNonFiniteIs422(t *testing.T) {
	fw := newFakeShardWorker(t)
	rt := newShardRouter(t, workerAddr(fw.Server))
	ys := fragmentYs(2)
	ys[0][2], ys[1][0], ys[2][0] = 1e308, 1e308, 1 // row 2's three pieces
	fw.set(func(i int) []byte { return goodFragment(testPlan[i], ys[i]) })
	w, out := postMultiply(t, rt, testBody(onesX()))
	if w.Code != http.StatusUnprocessableEntity || !strings.HasPrefix(fmt.Sprint(out["error"]), "y[2] = +Inf") {
		t.Fatalf("status %d body %s, want 422 naming y[2]", w.Code, w.Body.String())
	}
}

// TestRouterBadBodyIs400: every body encoding/json rejects is a 400 at
// the router — also an out-of-range number in a column no shard reads —
// while valid oddities encoding/json accepts still route.
func TestRouterBadBodyIs400(t *testing.T) {
	fw := newFakeShardWorker(t)
	rt := newShardRouter(t, workerAddr(fw.Server))
	ys := fragmentYs(3)
	fw.set(func(i int) []byte { return goodFragment(testPlan[i], ys[i]) })
	uncovered := onesX()
	uncovered[9] = "1e400"
	for _, body := range []string{
		testBody(uncovered),
		testBody(onesX()) + ` x`,
		`{"matrix":"m","scale":1,"x":[1,2,]}`,
		`{"matrix":"m","scale":1.5,"x":[1]}`,
		`{"matrix":"m","scale":1,"x":["1"]}`,
		`{"matrix":"m","scale":1,"x":[1`,
		`[1,2,3]`,
	} {
		w, _ := postMultiply(t, rt, body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%.60s: status %d, want 400", body, w.Code)
		}
	}
	// null elements decode to 0 in encoding/json; the shards get 0.
	nulls := onesX()
	nulls[4] = "null"
	w, _ := postMultiply(t, rt, testBody(nulls))
	if w.Code != http.StatusOK {
		t.Fatalf("x with null: status %d body %s", w.Code, w.Body.String())
	}
	if got := fw.got[1]; len(got) != 3 || got[1] != 0 || got[2] != 6 {
		t.Fatalf("shard 1 received %v, want [4 0 6]", got)
	}
}

// TestRouterScatterBytesMatchReference runs real workers: the router's
// response is byte-identical to what decoding each worker's fragment,
// shard.Gather and json.Marshal of the response map produce.
func TestRouterScatterBytesMatchReference(t *testing.T) {
	workers := []*httptest.Server{newWorker(t), newWorker(t)}
	backends := []string{workerAddr(workers[0]), workerAddr(workers[1])}
	const name, scale, shards = "dawson5", 16, 3
	rt, err := NewRouter(RouterOptions{
		Backends: func() []string { return backends },
		Shards:   map[string]int{fmt.Sprintf("%s@%d", name, scale): shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := gen.Representative(name, scale)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%30-15))
	}
	w, _ := postMultiply(t, rt, mustBody(t, name, scale, x))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	plan, err := shard.Plan(a, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([][]float64, shards)
	for i, d := range plan {
		sub, _ := json.Marshal(map[string]any{"matrix": name, "scale": scale, "shard_index": i,
			"shard_count": shards, "x": x[d.ColLo:d.ColHi]})
		resp, err := http.Post(workers[0].URL+"/v1/multiply", "application/json", bytes.NewReader(sub))
		if err != nil {
			t.Fatal(err)
		}
		var fr struct{ Y []float64 }
		err = json.NewDecoder(resp.Body).Decode(&fr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		frags[i] = fr.Y
	}
	y := make([]float64, a.Rows)
	if err := shard.Gather(y, plan, frags); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(map[string]any{"matrix": name, "scale": scale, "rows": a.Rows, "cols": len(x),
		"shard_count": shards, "y": y})
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("router bytes differ from the decode-gather-marshal reference (%d vs %d bytes)", w.Body.Len(), len(want))
	}
}

func TestCheckPlan(t *testing.T) {
	if err := checkPlan(testPlan, 4); err != nil {
		t.Fatal(err)
	}
	a := gen.Representative("dawson5", 16)
	for _, n := range []int{1, 2, 3, 7} {
		plan, _ := shard.Plan(a, n, nil)
		if err := checkPlan(plan, n); err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
	}
	// Every plan shard.Plan makes passes, also with empty rows at both
	// ends and in runs, and more shards than nonzeros.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(12)
		b := &sparse.CSR{Rows: rows, Cols: 6, RowPtr: make([]int, rows+1)}
		for r := 0; r < rows; r++ {
			if rng.Intn(3) > 0 {
				for n := rng.Intn(4); n > 0; n-- {
					b.ColIdx = append(b.ColIdx, rng.Intn(b.Cols))
					b.Val = append(b.Val, 1)
				}
			}
			b.RowPtr[r+1] = len(b.ColIdx)
		}
		n := 1 + rng.Intn(9)
		plan, err := shard.Plan(b, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPlan(plan, n); err != nil {
			t.Fatalf("trial %d, row pointers %v, %d shards: %v", trial, b.RowPtr, n, err)
		}
	}
	for name, edit := range map[string]func(p []shard.Desc){
		"gap":          func(p []shard.Desc) { p[3].Row0, p[3].Row1 = 6, 6 },
		"overlap":      func(p []shard.Desc) { p[2].Row0 = 1 },
		"index":        func(p []shard.Desc) { p[1].Index = 2 },
		"empty window": func(p []shard.Desc) { p[0].ColHi = 0 },
	} {
		p := append([]shard.Desc(nil), testPlan...)
		edit(p)
		if checkPlan(p, 4) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// gatherFragments runs the router's gather on raw fragment bodies.
func gatherFragments(bodies [][]byte) ([]byte, error) {
	frags := make([]fragment, len(testPlan))
	for k, d := range testPlan {
		if err := scanFragment(bodies[k], d, len(testPlan), &frags[k], nil); err != nil {
			return nil, err
		}
	}
	return appendGather(nil, testPlan, frags, testRows)
}

// referenceFragment decodes a fragment with encoding/json under the
// router's rules: an object with y of numbers only (no null), and an
// echo matching the plan.
func referenceFragment(body []byte, d shard.Desc) ([]float64, bool) {
	var fr struct {
		Y          *[]*float64 `json:"y"`
		ShardIndex int         `json:"shard_index"`
		ShardCount int         `json:"shard_count"`
		Row0       int         `json:"row0"`
	}
	if json.Unmarshal(body, &fr) != nil || fr.Y == nil || len(*fr.Y) != d.Rows() ||
		fr.ShardIndex != d.Index || fr.ShardCount != d.Count || fr.Row0 != d.Row0 {
		return nil, false
	}
	y := make([]float64, len(*fr.Y))
	for i, p := range *fr.Y {
		if p == nil {
			return nil, false
		}
		y[i] = *p
	}
	return y, true
}

// FuzzGatherFragments feeds the router's gather arbitrary upstream 200
// bodies. It must never panic; it must accept exactly the fragments
// encoding/json reads as valid under the router's rules (bodies nested
// past the scanner's depth may be refused), and what it assembles must
// be valid JSON holding shard.Gather's y bit for bit.
func FuzzGatherFragments(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		ys := fragmentYs(seed)
		f.Add(goodFragment(testPlan[0], ys[0]), goodFragment(testPlan[1], ys[1]),
			goodFragment(testPlan[2], ys[2]), goodFragment(testPlan[3], ys[3]))
	}
	f.Add([]byte(`{"y":[1,2,3e0]}`), []byte(`{"Y":[-0.0],"SHARD_INDEX":1,"shard_count":4,"row0":2}`),
		[]byte(` {"row0":2,"y":[1E2,2,3],"shard_index":2,"shard_count":4,"x":{"n":[null]}} `),
		[]byte(`{"y":[5],"shard_index":3,"shard_count":4,"row0":5,"y":[6]}`))
	f.Add([]byte(`{"y":[1e308,1,1]}`), []byte(`{"y":[1e308],"shard_index":1,"shard_count":4,"row0":2}`),
		[]byte(`{"y":[1,2,3],"shard_index":2,"shard_count":4,"row0":2}`), []byte(`null`))
	f.Fuzz(func(t *testing.T, b0, b1, b2, b3 []byte) {
		bodies := [][]byte{b0, b1, b2, b3}
		got, err := gatherFragments(bodies)
		ys := make([][]float64, len(testPlan))
		valid := true
		for k, d := range testPlan {
			var ok bool
			if ys[k], ok = referenceFragment(bodies[k], d); !ok {
				valid = false
			}
		}
		var bf *badFragment
		switch {
		case errors.As(err, &bf):
			if valid && !errors.Is(err, wire.ErrDefer) {
				t.Fatalf("gather refused fragments encoding/json reads as valid: %v", err)
			}
			return
		case !valid:
			t.Fatalf("gather accepted fragments encoding/json refuses (err %v)", err)
		}
		y := make([]float64, testRows)
		if gerr := shard.Gather(y, testPlan, ys); gerr != nil {
			t.Fatal(gerr)
		}
		var nf *wire.NonFiniteError
		if errors.As(err, &nf) {
			if !math.IsInf(y[nf.Row], 0) && !math.IsNaN(y[nf.Row]) {
				t.Fatalf("gather reported row %d non-finite, shard.Gather gives %v", nf.Row, y[nf.Row])
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		if err := json.Unmarshal(got, &out); err != nil {
			t.Fatalf("gathered y is not a JSON number array: %v: %s", err, got)
		}
		if len(out) != len(y) {
			t.Fatalf("gathered %d rows, want %d", len(out), len(y))
		}
		for r := range y {
			if math.Float64bits(out[r]) != math.Float64bits(y[r]) {
				t.Fatalf("row %d: gathered %v, shard.Gather gives %v", r, out[r], y[r])
			}
		}
	})
}

// FuzzRouteBody checks the router's body decoder against json.Unmarshal
// into its old request struct: same verdict and error text, same
// matrix and scale, and x text that parses to the same bits.
func FuzzRouteBody(f *testing.F) {
	for _, s := range []string{
		`{"matrix":"m","scale":1,"x":[1,2.5,-0]}`, `{"x":[1,null,3],"matrix":"m"}`, `null`, ` {} `,
		`{"x":[1],"x":[2,3],"SCALE":2,"ſcale":3}`, `{"matrix":"m","x":[1e400]}`, `{"matrix":"m","x":[1e-400]}`,
		`{"matrix":"m","x":[1]} x`, `{"matrix":"m","x":[1]}}`, `{"matrix":"m","x":7}`, `{"matrix":"m","x":null}`,
		`{"matrix":"m","timeout_ms":"soon","x":[1]}`, `{"matrix":"m","x":[01]}`, `{"matrix":"m","x":[1.]}`,
		`{"matrix":"m","x":[1,]}`, `{"matrix":1}`, "{\"matrix\":\"\xff\",\"x\":[]}", `[`, ``,
		`{"matrix":"m","n":` + strings.Repeat("[", 80) + strings.Repeat("]", 80) + `,"x":[1,null]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Matrix string    `json:"matrix"`
			Scale  int       `json:"scale"`
			X      []float64 `json:"x"`
		}
		werr := json.Unmarshal(body, &want)
		var q routeRequest
		err := decodeRoute(body, &q, []int32{9, 9, 9}[:0])
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("body %q: decodeRoute %v, json.Unmarshal %v", body, err, werr)
		}
		if err != nil {
			return
		}
		if q.Matrix != want.Matrix || q.Scale != want.Scale || q.cols() != len(want.X) {
			t.Fatalf("body %q: got %q/%d/%d cols, want %+v", body, q.Matrix, q.Scale, q.cols(), want)
		}
		for i, v := range want.X {
			got, perr := strconv.ParseFloat(string(q.xText(i, i+1)), 64)
			if perr != nil || math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("body %q: x[%d] text %q, want %v", body, i, q.xText(i, i+1), v)
			}
		}
	})
}
