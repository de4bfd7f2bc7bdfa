package server

import (
	"bytes"
	"encoding/json"
	"strconv"

	"haspmv/internal/wire"
)

// Buffers of the multiply path. Each request takes its body, x, y and
// response storage from these and returns it when the handler ends.
var (
	bytePool  wire.Pool[byte]
	floatPool wire.Pool[float64]
)

// maxBodyBytes caps a multiply body. A scale-1 circuit5M x vector is
// ~45MB of JSON floats; 256MB leaves headroom while still bounding a
// hostile body.
const maxBodyBytes = 256 << 20

// decodeMultiply decodes a multiply body into req, parsing x into xbuf's
// storage. The result is always exactly what
// json.NewDecoder(body).Decode(req) gives: the wire scan decides the
// common case, and any body it does not accept outright is decoded by
// encoding/json, which then gives the verdict and the error message.
func decodeMultiply(body []byte, req *multiplyRequest, xbuf []float64) error {
	if scanMultiply(body, req, xbuf) == nil {
		return nil
	}
	*req = multiplyRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// scanMultiply is the wire scan behind decodeMultiply. It mirrors
// json.Decoder: leading whitespace, then one value; bytes after a
// top-level object or null are never looked at. x is parsed by the scanner;
// every other member is located and handed to encoding/json as raw
// bytes. Members apply in order onto one struct, so a repeated key ends
// with its last value, as in encoding/json.
func scanMultiply(body []byte, req *multiplyRequest, xbuf []float64) error {
	i := wire.SkipSpace(body, 0)
	if wire.IsNull(body, i) {
		// The zero request; json.Decoder reads no further either.
		return nil
	}
	if i >= len(body) || body[i] != '{' {
		return &wire.SyntaxError{Off: i, Msg: "multiply body is not a JSON object"}
	}
	_, err := wire.Object(body, i, func(quoted []byte, i int) (int, error) {
		key := wire.Key(quoted)
		if wire.KeyIs(key, "x") {
			switch {
			case wire.IsNull(body, i):
				req.X = nil
				return i + 4, nil
			case i < len(body) && body[i] == '[':
				x, end, err := wire.Floats(xbuf, body, i)
				req.X, xbuf = x, x
				return end, err
			}
			return 0, wire.ErrDefer
		}
		end, err := wire.SkipValue(body, i)
		if err != nil {
			return 0, err
		}
		var field any
		switch {
		case wire.KeyIs(key, "matrix"):
			field = &req.Matrix
		case wire.KeyIs(key, "scale"):
			field = &req.Scale
		case wire.KeyIs(key, "timeout_ms"):
			field = &req.TimeoutMs
		case wire.KeyIs(key, "shard_index"):
			field = &req.ShardIndex
		case wire.KeyIs(key, "shard_count"):
			field = &req.ShardCount
		default:
			return end, nil
		}
		return end, json.Unmarshal(body[i:end], field)
	})
	return err
}

// appendMultiplyResponse appends resp exactly as json.Encoder writes
// it, trailing newline included. bad is the index of the first
// non-finite element of resp.Y, which JSON cannot carry, or -1; when it
// is not -1 the appended bytes are incomplete.
func appendMultiplyResponse(b []byte, resp *multiplyResponse) (out []byte, bad int) {
	b = append(b, `{"matrix":`...)
	b = wire.AppendString(b, resp.Matrix)
	b = append(b, `,"scale":`...)
	b = strconv.AppendInt(b, int64(resp.Scale), 10)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(resp.Rows), 10)
	b = append(b, `,"cols":`...)
	b = strconv.AppendInt(b, int64(resp.Cols), 10)
	b = append(b, `,"batch_nv":`...)
	b = strconv.AppendInt(b, int64(resp.BatchNV), 10)
	b = append(b, `,"y":`...)
	if b, bad = wire.AppendFloats(b, resp.Y); bad >= 0 {
		return b, bad
	}
	b = appendOmitEmpty(b, `,"shard_index":`, resp.ShardIndex)
	b = appendOmitEmpty(b, `,"shard_count":`, resp.ShardCount)
	b = appendOmitEmpty(b, `,"row0":`, resp.Row0)
	return append(b, "}\n"...), -1
}

// appendOmitEmpty appends an int member tagged omitempty: nothing for 0.
func appendOmitEmpty(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}
