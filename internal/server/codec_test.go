package server

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
	"strings"
	"testing"

	"haspmv/internal/fleet/shard"
	"haspmv/internal/sparse"
	"haspmv/internal/wire"
)

// multiplyBodySeeds cover every corner where a hand-written JSON decoder
// can drift from encoding/json.
var multiplyBodySeeds = []string{
	`{"matrix":"dawson5","scale":64,"x":[1,2.5,-3e-7,0]}`,
	`{"x":[1,2],"matrix":"a","timeout_ms":50,"shard_index":1,"shard_count":2}`,
	` {"matrix":"a","x":[]} trailing garbage`,
	`{"matrix":"a","x":[1,2]`, `{"matrix":"a","x":[1,`, `{"matrix":"a","x":[1`, `{"matr`, `{`, ``, `   `,
	`{"matrix":"a","extra":{"nested":[1,{"deep":[true,false,null]}],"s":"\u00e9\n"},"x":[1]}`,
	`{"MATRIX":"a","Scale":3,"X":[1],"Shard_Index":1,"SHARD_COUNT":2,"Timeout_MS":9}`,
	`{"ſcale":2,"matrix":"a","x":[1]}`, `{"\u0078":[4],"matrix":"a"}`,
	`{"x":[1,2,3],"x":[4],"matrix":"a","matrix":"b"}`,
	`{"x":[1,2,3],"x":[null,5],"matrix":"a"}`,
	`{"x":[1],"x":null,"matrix":"a"}`, `{"x":[],"x":[null],"matrix":"a"}`,
	`null`, `null `, `nullx`, `null}`, `[1,2]`, `"str"`, `42`, `true`,
	`{"matrix":null,"scale":null,"x":null}`, `{"scale":5,"scale":null,"matrix":"a","x":[1]}`,
	`{"matrix":"a","x":[-0,0,-0.0,0e0]}`, `{"matrix":"a","x":[1e400]}`, `{"matrix":"a","x":[-1e400]}`,
	`{"matrix":"a","x":[1e-400,4.9e-324,2.4e-324]}`, `{"matrix":"a","x":[NaN]}`, `{"matrix":"a","x":[Infinity]}`,
	`{"matrix":"a","x":[1e]}`, `{"matrix":"a","x":[1e+]}`, `{"matrix":"a","x":[1.e5]}`, `{"matrix":"a","x":[.5]}`,
	`{"matrix":"a","x":[01]}`, `{"matrix":"a","x":[+1]}`, `{"matrix":"a","x":[1,]}`, `{"matrix":"a","x":[,1]}`,
	"{\"matrix\":\"a\",\"x\":[ 1 ,\t2\n,\r3 ]}", "{ \"matrix\" : \"a\" , \"x\" : [ ] }",
	`{"matrix":"a","x":["1"]}`, `{"matrix":"a","x":[true]}`, `{"matrix":"a","x":[[1]]}`, `{"matrix":"a","x":{}}`,
	`{"matrix":"a","x":"1,2"}`, `{"matrix":"a","x":7}`, `{"matrix":5,"x":[1]}`, `{"matrix":"a","scale":1.5,"x":[1]}`,
	`{"matrix":"a","scale":"3","x":[1]}`, `{"matrix":"a","scale":99999999999999999999,"x":[1]}`,
	`{"matrix":"a","scale":-0,"x":[1]}`, `{"matrix":"a","scale":1e2,"x":[1]}`,
	"{\"matrix\":\"a\xff\xfe\",\"x\":[1]}", `{"matrix":"<a&b>","x":[1]}`, `{"matrix":"\ud800","x":[1]}`,
	"{\"matrix\":\"a\x01\",\"x\":[1]}", `{"matrix":"a\q","x":[1]}`, `{"matrix":"a","x":[1]}}`,
	`{"matrix":"a" "x":[1]}`, `{"matrix":"a",}`, `{,"matrix":"a"}`, `{"matrix":"a":1}`, `{matrix:"a"}`,
	`{"matrix":"a","x":[1],"deep":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`,
	`{"matrix":"a","x":[1],"deep":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"matrix":"a","x":[1],"u":tru}`, `{"matrix":"a","x":[1],"u":nul}`, "\ufeff{\"matrix\":\"a\"}",
}

func sameRequest(t *testing.T, got, want multiplyRequest, body []byte) {
	t.Helper()
	if got.Matrix != want.Matrix || got.Scale != want.Scale || got.TimeoutMs != want.TimeoutMs ||
		got.ShardIndex != want.ShardIndex || got.ShardCount != want.ShardCount ||
		(got.X == nil) != (want.X == nil) || len(got.X) != len(want.X) {
		t.Fatalf("body %q:\n got %+v\nwant %+v", body, got, want)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("body %q: x[%d] = %v, encoding/json gives %v", body, i, got.X[i], want.X[i])
		}
	}
}

// FuzzMultiplyBody checks the hand decoder against encoding/json on any
// body: where the wire scan decides, it reaches encoding/json's verdict
// and fields (x bit for bit); decodeMultiply as a whole always matches
// encoding/json, error text included. The x storage is stale, as a
// pooled buffer is.
func FuzzMultiplyBody(f *testing.F) {
	for _, s := range multiplyBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want multiplyRequest
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)

		var got multiplyRequest
		serr := scanMultiply(body, &got, []float64{7, 7, 7, 7}[:0])
		switch {
		case serr == nil && werr != nil:
			t.Fatalf("scan accepted a body encoding/json rejects (%v): %q", werr, body)
		case serr == nil:
			sameRequest(t, got, want, body)
		case werr == nil && !errors.Is(serr, wire.ErrDefer):
			t.Fatalf("scan rejected (%v) a body encoding/json accepts: %q", serr, body)
		}

		var full multiplyRequest
		derr := decodeMultiply(body, &full, []float64{7, 7, 7, 7}[:0])
		if (derr == nil) != (werr == nil) || (derr != nil && derr.Error() != werr.Error()) {
			t.Fatalf("body %q: decodeMultiply error %v, encoding/json %v", body, derr, werr)
		}
		if derr == nil {
			sameRequest(t, full, want, body)
		}
	})
}

// TestMultiplyResponseBytes: the appended response is byte-identical to
// json.Encoder's, across the float rule's edges, HTML-escaped and
// invalid-UTF-8 matrix names, and the omitempty shard echo.
func TestMultiplyResponseBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	y := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 9.999e20, -1.5e-300, math.MaxFloat64, 4.9e-324}
	for len(y) < 2000 {
		if v := math.Float64frombits(rng.Uint64()); !math.IsInf(v, 0) && !math.IsNaN(v) {
			y = append(y, v)
		}
		y = append(y, rng.NormFloat64())
	}
	for i, resp := range []multiplyResponse{
		{Matrix: "dawson5", Scale: 64, Rows: len(y), Cols: 3, BatchNV: 2, Y: y},
		{Matrix: "<a&b>\u2028\xff", Scale: 1, Y: []float64{}},
		{Matrix: "w", Y: y[:5], ShardIndex: 0, ShardCount: 2, Row0: 0},
		{Matrix: "w", Y: y[5:9], ShardIndex: 1, ShardCount: 2, Row0: 17},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, bad := appendMultiplyResponse(nil, &resp)
		if bad != -1 || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d: bytes differ from json.Encoder (bad %d)\n got %.200s\nwant %.200s", i, bad, got, want.Bytes())
		}
	}
}

// overflowMatrix has values 0.25 in rows 0-2 and 3 in rows 3-7, so
// x = 1e308 overflows y from row 3 on.
func overflowMatrix() *sparse.CSR {
	a := &sparse.CSR{Rows: 8, Cols: 8, RowPtr: []int{0}}
	for r := 0; r < 8; r++ {
		v := 0.25
		if r >= 3 {
			v = 3
		}
		lo, hi := r, (r+1)%8
		if hi < lo {
			lo, hi = hi, lo
		}
		a.ColIdx = append(a.ColIdx, lo, hi)
		a.Val = append(a.Val, v, v)
		a.RowPtr = append(a.RowPtr, len(a.ColIdx))
	}
	return a
}

// TestMultiplyNonFiniteIs422: a y that JSON cannot carry is a 422 that
// names the first non-finite row (in whole-matrix numbering for a
// shard), never a 200 with an empty body.
func TestMultiplyNonFiniteIs422(t *testing.T) {
	a := overflowMatrix()
	_, ts := newTestServer(t, Config{Registry: RegistryOptions{
		Source: func(name string, scale int) (*sparse.CSR, error) { return a, nil },
	}})
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1e308
	}
	resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "overflow", X: x})
	var er errorResponse
	if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(body, &er) != nil ||
		!strings.HasPrefix(er.Error, "y[3] = +Inf is not finite") {
		t.Fatalf("status %d body %q, want 422 naming y[3]", resp.StatusCode, body)
	}

	plan, err := shard.Plan(a, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := plan[1]
	resp, body = postMultiply(t, ts.URL, multiplyRequest{Matrix: "overflow", X: x[d.ColLo:d.ColHi], ShardIndex: 1, ShardCount: 2})
	want := fmt.Sprintf("y[%d] = +Inf", max(3, d.Row0))
	if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(body, &er) != nil || !strings.HasPrefix(er.Error, want) {
		t.Fatalf("shard 1: status %d body %q, want 422 naming %s", resp.StatusCode, body, want)
	}

	// Finite x on the same matrix still serves.
	for i := range x {
		x[i] = 1
	}
	if resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "overflow", X: x}); resp.StatusCode != http.StatusOK {
		t.Fatalf("finite x: status %d body %s", resp.StatusCode, body)
	}
}

// TestMultiplyBoundsPresize: a client that declares a body near the
// 256 MiB cap and sends none makes the worker presize at most a small
// buffer, not the declared length.
func TestMultiplyBoundsPresize(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := &firstReadProbe{}
	req := httptest.NewRequest(http.MethodPost, "/v1/multiply", body)
	req.ContentLength = maxBodyBytes
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
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

// TestServedResponseIsEncoderOutput: a real served multiply's body is
// exactly what json.Encoder writes for the response it decodes to.
func TestServedResponseIsEncoderOutput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, shards := range []int{0, 2} {
		a, err := DefaultSource(64<<20)("dawson5", 64)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%40-20))
		}
		req := multiplyRequest{Matrix: "dawson5", Scale: 64, X: x}
		if shards > 0 {
			plan, _ := shard.Plan(a, shards, nil)
			d := plan[1]
			req.X, req.ShardIndex, req.ShardCount = x[d.ColLo:d.ColHi], 1, shards
		}
		resp, body := postMultiply(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var decoded multiplyResponse
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(decoded)
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("shards %d: served bytes differ from json.Encoder output", shards)
		}
		if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, len(body))
		}
	}
}
