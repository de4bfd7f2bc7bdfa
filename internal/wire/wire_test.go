package wire

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// floatCases are values at every edge of encoding/json's float rule and
// of the shortest-digits formatter: every power of ten and of two in
// float64 range with its neighbours, then random bit patterns and
// random normal values, 1<<20 in all.
func floatCases() []float64 {
	vs := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7,
		1e20, 1e21, 9.99999999e20, -1e21, 123456789, 1.5e300, math.MaxFloat64,
		-math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		1e-10, 1e-100, 1e-300, 12345678901234567890, 0.000001234}
	withNeighbours := func(v float64) {
		vs = append(vs, v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for e := -323; e <= 308; e++ {
		v, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		withNeighbours(v)
	}
	for e := -1074; e <= 1023; e++ {
		withNeighbours(math.Ldexp(1, e))
	}
	rng := rand.New(rand.NewSource(1))
	for len(vs) < 1<<20 {
		v := math.Float64frombits(rng.Uint64())
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			vs = append(vs, v)
		}
		vs = append(vs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	return vs
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, v := range floatCases() {
		checkAppendFloat(t, v)
	}
}

func TestAppendFloatsStopsAtNonFinite(t *testing.T) {
	vs := floatCases()[:100]
	got, bad := AppendFloats(nil, vs)
	want, _ := json.Marshal(vs)
	if bad != -1 || string(got) != string(want) {
		t.Fatalf("finite array: bad %d, bytes differ from json.Marshal", bad)
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, bad := AppendFloats(nil, []float64{1, 2, v, 3}); bad != 2 {
			t.Fatalf("%v: bad = %d, want 2", v, bad)
		}
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	vs := floatCases()
	text, _ := AppendFloats(nil, vs)
	got, end, err := Floats(make([]float64, 3, 8), text, 0)
	if err != nil || end != len(text) {
		t.Fatalf("Floats: end %d of %d, err %v", end, len(text), err)
	}
	if len(got) != len(vs) {
		t.Fatalf("%d floats, want %d", len(got), len(vs))
	}
	for i := range vs {
		if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("element %d: %v, want %v", i, got[i], vs[i])
		}
	}
	spans, end, err := Spans(nil, text, 0)
	if err != nil || end != len(text) || len(spans) != 2*len(vs) {
		t.Fatalf("Spans: %d offsets, end %d, err %v", len(spans), end, err)
	}
	for i := range vs {
		if s := string(text[spans[2*i]:spans[2*i+1]]); s != string(AppendFloat(nil, vs[i])) {
			t.Fatalf("span %d = %q", i, s)
		}
	}
}

func TestNumberArrays(t *testing.T) {
	for _, tc := range []struct {
		in       string
		n        int
		deferred bool
		ok       bool
	}{
		{`[]`, 0, false, true},
		{`[ 1 , -0 ,2.5e3, 1E-2 ]`, 4, false, true},
		{"[\t1\n,\r2]", 2, false, true},
		{`[1e-400]`, 1, false, true}, // underflows to 0, as in encoding/json
		{`[1,null]`, 0, true, false},
		{`[1e400]`, 0, false, false},
		{`[-1e309]`, 0, false, false},
		{`[01]`, 0, false, false},
		{`[1.]`, 0, false, false},
		{`[.5]`, 0, false, false},
		{`[1e]`, 0, false, false},
		{`[1e+]`, 0, false, false},
		{`[-]`, 0, false, false},
		{`[+1]`, 0, false, false},
		{`[1,]`, 0, false, false},
		{`[1 2]`, 0, false, false},
		{`["1"]`, 0, false, false},
		{`[true]`, 0, false, false},
		{`[NaN]`, 0, false, false},
		{`[1`, 0, false, false},
		{`[`, 0, false, false},
	} {
		for _, spans := range []bool{false, true} {
			var n int
			var err error
			if spans {
				var s []int32
				s, _, err = Spans(nil, []byte(tc.in), 0)
				n = len(s) / 2
			} else {
				var f []float64
				f, _, err = Floats(nil, []byte(tc.in), 0)
				n = len(f)
			}
			switch {
			case tc.ok && (err != nil || n != tc.n):
				t.Errorf("%s (spans %v): n %d err %v, want %d elements", tc.in, spans, n, err, tc.n)
			case !tc.ok && err == nil:
				t.Errorf("%s (spans %v): accepted", tc.in, spans)
			case tc.deferred != errors.Is(err, ErrDefer):
				t.Errorf("%s (spans %v): err %v, ErrDefer want %v", tc.in, spans, err, tc.deferred)
			}
		}
	}
}

func TestSkipValueMatchesJSONValid(t *testing.T) {
	for _, in := range []string{
		`{}`, `[]`, `""`, `"a\"b\\c\/\b\f\n\r\té"`, `"\u12"`, `"\x"`, "\"a\x01\"",
		"\"\xff\xfe\"", `{"a":[1,{"b":null}],"c":true,"d":false}`, `{"a" 1}`, `{"a":1,}`,
		`[1,2,]`, `tru`, `nul`, `{"a":1 "b":2}`, `{1:2}`, `-`, `0.5e-3`, `[[[[]]]]`,
	} {
		end, err := SkipValue([]byte(in), 0)
		got := err == nil && end == len(in)
		if want := json.Valid([]byte(in)); got != want {
			t.Errorf("%q: SkipValue ok=%v (end %d, err %v), json.Valid %v", in, got, end, err, want)
		}
	}
	deep := make([]byte, 0, 2*maxDepth+4)
	for i := 0; i <= maxDepth+1; i++ {
		deep = append(deep, '[')
	}
	for i := 0; i <= maxDepth+1; i++ {
		deep = append(deep, ']')
	}
	if _, err := SkipValue(deep, 0); !errors.Is(err, ErrDefer) {
		t.Fatalf("nesting past maxDepth: %v, want ErrDefer", err)
	}
}

func TestKeyMatchesEncodingJSON(t *testing.T) {
	// encoding/json matches a field exactly, then under case folding,
	// after unquoting the key; ſ (U+017F) folds to S.
	for _, tc := range []struct {
		quoted, name string
		want         bool
	}{
		{`"x"`, "x", true}, {`"X"`, "x", true}, {`"\u0078"`, "x", true}, {`"xx"`, "x", false},
		{`"SCALE"`, "scale", true}, {`"ſcale"`, "scale", true}, {`"\u017Fcale"`, "scale", true},
		{`"ShArD_InDeX"`, "shard_index", true}, {`"shard-index"`, "shard_index", false},
		{`"timeout_mſ"`, "timeout_ms", true}, {`"matrix "`, "matrix", false},
	} {
		if got := KeyIs(Key([]byte(tc.quoted)), tc.name); got != tc.want {
			t.Errorf("key %s vs %s: %v, want %v", tc.quoted, tc.name, got, tc.want)
		}
		var probe struct {
			X          int `json:"x"`
			Scale      int `json:"scale"`
			ShardIndex int `json:"shard_index"`
			TimeoutMs  int `json:"timeout_ms"`
			Matrix     int `json:"matrix"`
		}
		if err := json.Unmarshal([]byte("{"+tc.quoted+":1}"), &probe); err != nil {
			t.Fatal(err)
		}
		set := map[string]int{"x": probe.X, "scale": probe.Scale, "shard_index": probe.ShardIndex,
			"timeout_ms": probe.TimeoutMs, "matrix": probe.Matrix}[tc.name] == 1
		if set != tc.want {
			t.Errorf("key %s: encoding/json sets %s = %v, test expects %v", tc.quoted, tc.name, set, tc.want)
		}
	}
}

func TestReadAllReusesStorage(t *testing.T) {
	src := make([]byte, 10000)
	for i := range src {
		src[i] = byte(i)
	}
	buf := make([]byte, 0, 20000)
	got, err := ReadAll(buf, bytesReader(src), -1)
	if err != nil || string(got) != string(src) || &got[0] != &buf[:1][0] {
		t.Fatalf("ReadAll: err %v, equal %v, reused %v", err, string(got) == string(src), &got[0] == &buf[:1][0])
	}
	got, err = ReadAll(nil, bytesReader(src), int64(len(src)))
	if err != nil || string(got) != string(src) || cap(got) != len(src)+1 {
		t.Fatalf("presized ReadAll: err %v, cap %d", err, cap(got))
	}
}

// TestReadAllBoundsPresize: a declared length only presizes up to
// maxPresize; past it the buffer grows with the bytes that arrive.
func TestReadAllBoundsPresize(t *testing.T) {
	for _, hint := range []int64{maxPresize, 1 << 40, 1<<63 - 1} {
		got, err := ReadAll(nil, bytesReader([]byte("{}")), hint)
		if err != nil || string(got) != "{}" || cap(got) > maxPresize {
			t.Fatalf("hint %d: err %v, %q, cap %d", hint, err, got, cap(got))
		}
	}
	src := make([]byte, 3*maxPresize+5)
	got, err := ReadAll(nil, bytesReader(src), 1<<40)
	if err != nil || len(got) != len(src) || cap(got) > 2*len(src) {
		t.Fatalf("grown ReadAll: err %v, len %d, cap %d", err, len(got), cap(got))
	}
}

func TestReadLimited(t *testing.T) {
	src := []byte("0123456789")
	if got, err := ReadLimited(nil, bytesReader(src), -1, 10); err != nil || string(got) != string(src) {
		t.Fatalf("at the limit: %q, %v", got, err)
	}
	if _, err := ReadLimited(nil, bytesReader(src), -1, 9); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over the limit: err %v, want ErrTooLarge", err)
	}
}

type sliceReader struct{ b []byte }

func bytesReader(b []byte) *sliceReader { return &sliceReader{b} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b[:min(len(r.b), 777)]) // short reads
	r.b = r.b[n:]
	return n, nil
}
