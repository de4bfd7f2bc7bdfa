package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"haspmv/internal/fleet/shard"
	"haspmv/internal/wire"
)

// Buffers of the scatter-gather path, recycled through sync.Pool only.
var (
	bytePool wire.Pool[byte]
	spanPool wire.Pool[int32]
)

// Caps on what the router reads: a client's multiply body, a worker's
// multiply answer (relayed, or a fragment to gather; the workers' own
// body cap) and a worker's shard plan. All stay far below the 2 GiB the
// int32 wire spans can address.
const (
	maxBodyBytes     = 64 << 20
	maxUpstreamBytes = 256 << 20
	maxPlanBytes     = 1 << 20
)

// routeRequest is what the router reads from a multiply body. It never
// converts x: spans holds the byte offsets of every element in body
// (wire.Spans layout), so a shard's x window is copied as text.
type routeRequest struct {
	Matrix string
	Scale  int
	body   []byte
	spans  []int32
}

// cols is the length of x.
func (q *routeRequest) cols() int { return len(q.spans) / 2 }

// xText returns the text of x[lo:hi] (hi > lo), separators included.
func (q *routeRequest) xText(lo, hi int) []byte {
	return q.body[q.spans[2*lo]:q.spans[2*hi-1]]
}

// decodeRoute reads a multiply body into q, filling q.spans from
// spans' storage. It accepts exactly the bodies json.Unmarshal accepts
// into {matrix, scale, x []float64}, with its error message. Bodies the
// wire scan leaves to encoding/json (null elements in x, deep nesting)
// are decoded by it and re-encoded in canonical form, so x is always
// text the workers parse to the same floats.
func decodeRoute(body []byte, q *routeRequest, spans []int32) error {
	if scanRoute(body, q, spans) == nil {
		return nil
	}
	var req struct {
		Matrix string    `json:"matrix"`
		Scale  int       `json:"scale"`
		X      []float64 `json:"x"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	canon := append([]byte(`{"matrix":`), wire.AppendString(nil, req.Matrix)...)
	canon = append(canon, `,"scale":`...)
	canon = strconv.AppendInt(canon, int64(req.Scale), 10)
	canon = append(canon, `,"x":`...)
	canon, _ = wire.AppendFloats(canon, req.X) // decoded floats are finite
	canon = append(canon, '}')
	*q = routeRequest{}
	if err := scanRoute(canon, q, spans); err != nil {
		return fmt.Errorf("fleet: canonical body does not scan: %w", err)
	}
	return nil
}

// scanRoute is the wire scan behind decodeRoute, with json.Unmarshal's
// framing: one value, only whitespace after it.
func scanRoute(body []byte, q *routeRequest, spans []int32) error {
	q.body = body
	i := wire.SkipSpace(body, 0)
	var end int
	var err error
	switch {
	case wire.IsNull(body, i):
		end = i + 4
	case i < len(body) && body[i] == '{':
		end, err = wire.Object(body, i, func(quoted []byte, i int) (int, error) {
			key := wire.Key(quoted)
			if wire.KeyIs(key, "x") {
				if wire.IsNull(body, i) {
					q.spans = nil
					return i + 4, nil
				}
				if i >= len(body) || body[i] != '[' {
					return 0, wire.ErrDefer
				}
				s, end, err := wire.Spans(spans, body, i)
				q.spans, spans = s, s
				return end, err
			}
			end, err := wire.SkipValue(body, i)
			if err != nil {
				return 0, err
			}
			switch {
			case wire.KeyIs(key, "matrix"):
				err = json.Unmarshal(body[i:end], &q.Matrix)
			case wire.KeyIs(key, "scale"):
				err = json.Unmarshal(body[i:end], &q.Scale)
			}
			return end, err
		})
	default:
		return &wire.SyntaxError{Off: i, Msg: "multiply body is not a JSON object"}
	}
	if err != nil {
		return err
	}
	if j := wire.SkipSpace(body, end); j != len(body) {
		return &wire.SyntaxError{Off: j, Msg: "invalid character after top-level value"}
	}
	return nil
}

// appendShardRequest appends the multiply body for shard d: a fixed
// header and x[ColLo:ColHi] copied verbatim from the client's body, so
// the worker parses the very text the client sent.
func appendShardRequest(b []byte, q *routeRequest, d shard.Desc, count int) []byte {
	b = append(b, `{"matrix":`...)
	b = wire.AppendString(b, q.Matrix)
	b = append(b, `,"scale":`...)
	b = strconv.AppendInt(b, int64(q.Scale), 10)
	b = append(b, `,"shard_count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, `,"shard_index":`...)
	b = strconv.AppendInt(b, int64(d.Index), 10)
	b = append(b, `,"x":[`...)
	b = append(b, q.xText(d.ColLo, d.ColHi)...)
	return append(b, "]}"...)
}

// fragment is one worker's answer to a shard request, checked against
// the plan: the body and the byte offsets of every y element in it.
type fragment struct {
	body  []byte
	spans []int32
}

// badFragment is an upstream 200 the router cannot use: malformed, a
// non-number in y, or an echo that disagrees with the plan. It becomes
// a 502 and y is never assembled from it.
type badFragment struct {
	shard int
	err   error
}

func (e *badFragment) Error() string {
	return fmt.Sprintf("fleet: shard %d returned a bad fragment: %v", e.shard, e.err)
}

func (e *badFragment) Unwrap() error { return e.err }

// scanFragment reads a worker's shard response into f, filling f.spans
// from spans' storage, and checks it against plan entry d.
func scanFragment(body []byte, d shard.Desc, count int, f *fragment, spans []int32) error {
	*f = fragment{body: body}
	index, shards, row0 := 0, 0, 0
	haveY := false
	i := wire.SkipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return &badFragment{d.Index, errors.New("not a JSON object")}
	}
	end, err := wire.Object(body, i, func(quoted []byte, i int) (int, error) {
		key := wire.Key(quoted)
		if wire.KeyIs(key, "y") {
			if i >= len(body) || body[i] != '[' {
				return 0, errors.New("y is not an array")
			}
			s, end, err := wire.Spans(spans, body, i)
			f.spans, spans, haveY = s, s, true
			return end, err
		}
		end, err := wire.SkipValue(body, i)
		if err != nil {
			return 0, err
		}
		switch {
		case wire.KeyIs(key, "shard_index"):
			err = json.Unmarshal(body[i:end], &index)
		case wire.KeyIs(key, "shard_count"):
			err = json.Unmarshal(body[i:end], &shards)
		case wire.KeyIs(key, "row0"):
			err = json.Unmarshal(body[i:end], &row0)
		}
		return end, err
	})
	switch {
	case err != nil:
	case wire.SkipSpace(body, end) != len(body):
		err = errors.New("trailing data after the object")
	case !haveY:
		err = errors.New("no y")
	case index != d.Index || shards != count || row0 != d.Row0:
		err = fmt.Errorf("echoes shard %d/%d row0 %d, plan has %d/%d row0 %d",
			index, shards, row0, d.Index, count, d.Row0)
	case len(f.spans)/2 != d.Rows():
		err = fmt.Errorf("y has %d rows, plan has %d", len(f.spans)/2, d.Rows())
	}
	if err != nil {
		return &badFragment{d.Index, err}
	}
	return nil
}

// checkPlan verifies a worker-supplied plan is a chain the gather can
// walk: shard k is index k of count, rows follow on from the previous
// shard or continue its last row (a split) from row 0 on, and every
// window is non-empty.
func checkPlan(plan []shard.Desc, count int) error {
	if len(plan) != count {
		return fmt.Errorf("fleet: worker returned %d shards, want %d", len(plan), count)
	}
	last := -1
	for k, d := range plan {
		chained := d.Row0 == last+1 || (d.Row0 == last && last >= 0 && d.Rows() > 0)
		if d.Index != k || d.Count != count || d.Rows() < 0 || !chained || d.ColLo < 0 || d.ColHi <= d.ColLo {
			return fmt.Errorf("fleet: worker returned an inconsistent shard plan (shard %d: %+v)", k, d)
		}
		last = max(last, d.Row1)
	}
	return nil
}

// appendRouteResponse appends the gathered multiply response. Its keys
// are in json.Marshal's sorted map order, so the bytes match what the
// map[string]any response the router used to marshal gives.
func appendRouteResponse(b []byte, q *routeRequest, plan []shard.Desc, frags []fragment, rows int) ([]byte, error) {
	b = append(b, `{"cols":`...)
	b = strconv.AppendInt(b, int64(q.cols()), 10)
	b = append(b, `,"matrix":`...)
	b = wire.AppendString(b, q.Matrix)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(rows), 10)
	b = append(b, `,"scale":`...)
	b = strconv.AppendInt(b, int64(q.Scale), 10)
	b = append(b, `,"shard_count":`...)
	b = strconv.AppendInt(b, int64(len(plan)), 10)
	b = append(b, `,"y":`...)
	b, err := appendGather(b, plan, frags, rows)
	return append(b, '}'), err
}

// zeroText is the text of a row no shard owns.
var zeroText = []byte("0")

// appendGather appends the JSON array of the full y from checked
// fragments, with shard.Gather's arithmetic: a row owned by one shard
// is copied as the worker's text, and a row cut between shards is the
// sum of its pieces in ascending shard order — the only values parsed
// and formatted, 2·(K−1) per request. Rows past the last shard are 0.
// A cut row summing past float64 range is a *wire.NonFiniteError.
func appendGather(b []byte, plan []shard.Desc, frags []fragment, rows int) ([]byte, error) {
	b = append(b, '[')
	sep := false
	emit := func(text []byte) {
		if sep {
			b = append(b, ',')
		}
		b = append(b, text...)
		sep = true
	}
	parse := func(f *fragment, k int) float64 {
		v, _, _ := wire.ParseNumber(f.body, int(f.spans[2*k])) // scanFragment checked the span
		return v
	}
	var carry float64 // running sum of the cut row carryRow
	carryRow := -1
	flush := func() error {
		if math.IsInf(carry, 0) || math.IsNaN(carry) {
			return &wire.NonFiniteError{Row: carryRow, V: carry}
		}
		var num [32]byte
		emit(wire.AppendFloat(num[:0], carry))
		carryRow = -1
		return nil
	}
	written := 0 // rows emitted or pending in carry
	for k, d := range plan {
		n := d.Rows()
		if n == 0 {
			continue
		}
		f := &frags[k]
		i := 0
		if carryRow == d.Row0 {
			carry += parse(f, 0)
			i = 1
		}
		if i == n {
			continue
		}
		if carryRow >= 0 {
			if err := flush(); err != nil {
				return b, err
			}
		}
		copyTo := n // rows [i, copyTo) are this shard's alone
		for _, next := range plan[k+1:] {
			if next.Rows() > 0 {
				if next.Row0 == d.Row1 {
					copyTo = n - 1
				}
				break
			}
		}
		if i < copyTo {
			emit(f.body[f.spans[2*i]:f.spans[2*copyTo-1]])
		}
		if copyTo < n {
			carry, carryRow = parse(f, n-1), d.Row1
		}
		written = d.Row1 + 1
	}
	if carryRow >= 0 {
		if err := flush(); err != nil {
			return b, err
		}
	}
	for ; written < rows; written++ {
		emit(zeroText)
	}
	return append(b, ']'), nil
}
