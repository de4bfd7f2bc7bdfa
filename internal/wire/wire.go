// Package wire is the JSON codec of the multiply hot path, shared by the
// serving worker (internal/server) and the fleet router (internal/fleet).
//
// A multiply body is one large number array (x in, y out) next to a few
// small fields. encoding/json spends most of a served multiply walking
// that array through reflection, so this package scans bodies by hand:
// each number is validated and converted in one pass (Clinger's fast
// path, then Eisel–Lemire, then strconv.ParseFloat for the rare rest),
// and formatted back with Ryu's shortest digits laid out under
// encoding/json's float rule, so every byte written matches what
// json.Marshal writes. The small fields are only located here and then
// decoded by encoding/json itself, so null handling, string escapes and
// integer type errors stay the standard library's.
//
// The scanner is sound, not complete. When it accepts a body, the result
// is the one encoding/json gives. When it returns an error, the caller
// decodes the body with encoding/json instead, which gives the verdict
// and the message. ErrDefer marks the constructs left to that path on
// purpose: null elements inside a number array (encoding/json keeps the
// slot's previous value) and nesting deeper than maxDepth.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
)

// ErrDefer reports a valid-looking construct the scanner leaves to
// encoding/json.
var ErrDefer = errors.New("wire: construct left to encoding/json")

// maxDepth bounds the nesting the scanner follows itself. encoding/json
// allows 10000 levels; nothing in a multiply body nests, so deeper
// values simply take the encoding/json path.
const maxDepth = 64

// SyntaxError is a scan failure at a byte offset.
type SyntaxError struct {
	Off int
	Msg string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("wire: %s at offset %d", e.Msg, e.Off) }

func errAt(b []byte, i int, what string) error {
	if i >= len(b) {
		return &SyntaxError{Off: i, Msg: "unexpected end of input"}
	}
	return &SyntaxError{Off: i, Msg: fmt.Sprintf("invalid character %q %s", b[i], what)}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// SkipSpace returns the offset of the first non-whitespace byte at or
// after i.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// IsNull reports whether b[i:] starts with the literal null.
func IsNull(b []byte, i int) bool {
	return len(b)-i >= 4 && string(b[i:i+4]) == "null"
}

// scanString validates the JSON string at b[i] == '"' and returns the
// offset past its closing quote.
func scanString(b []byte, i int) (int, error) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, nil
		case c == '\\':
			i++
			if i >= len(b) {
				return 0, errAt(b, i, "")
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					i++
					if i >= len(b) || !isHex(b[i]) {
						return 0, errAt(b, i, "in \\u escape")
					}
				}
			default:
				return 0, errAt(b, i, "in string escape code")
			}
		case c < 0x20:
			return 0, errAt(b, i, "in string literal")
		}
	}
	return 0, errAt(b, i, "")
}

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

func literal(b []byte, i int, lit string) (int, error) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return 0, errAt(b, i, "in literal "+lit)
	}
	return i + len(lit), nil
}

// SkipValue validates the JSON value at b[i] and returns its end.
func SkipValue(b []byte, i int) (int, error) { return skipValue(b, i, 0) }

func skipValue(b []byte, i, depth int) (int, error) {
	if i >= len(b) {
		return 0, errAt(b, i, "")
	}
	switch c := b[i]; {
	case c == '"':
		return scanString(b, i)
	case c == '-' || isDigit(c):
		var n number
		return n.scan(b, i, false)
	case c == 't':
		return literal(b, i, "true")
	case c == 'f':
		return literal(b, i, "false")
	case c == 'n':
		return literal(b, i, "null")
	case c == '[' || c == '{':
		if depth >= maxDepth {
			return 0, ErrDefer
		}
		if c == '[' {
			i, done := arrayStart(b, i)
			for !done {
				end, err := skipValue(b, i, depth+1)
				if err != nil {
					return 0, err
				}
				if i, done, err = arrayNext(b, end); err != nil {
					return 0, err
				}
			}
			return i, nil
		}
		return Object(b, i, func(_ []byte, i int) (int, error) { return skipValue(b, i, depth+1) })
	}
	return 0, errAt(b, i, "looking for beginning of value")
}

// Object walks the JSON object at b[i] == '{'. For each member it calls
// member with the quoted key (raw bytes, quotes included) and the offset
// of the value; member consumes the value and returns its end. Object
// returns the offset past the closing brace.
func Object(b []byte, i int, member func(key []byte, i int) (int, error)) (int, error) {
	i = SkipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return 0, errAt(b, i, "looking for beginning of object key string")
		}
		end, err := scanString(b, i)
		if err != nil {
			return 0, err
		}
		key := b[i:end]
		i = SkipSpace(b, end)
		if i >= len(b) || b[i] != ':' {
			return 0, errAt(b, i, "after object key")
		}
		if i, err = member(key, SkipSpace(b, i+1)); err != nil {
			return 0, err
		}
		i = SkipSpace(b, i)
		if i >= len(b) {
			return 0, errAt(b, i, "")
		}
		switch b[i] {
		case ',':
			i = SkipSpace(b, i+1)
		case '}':
			return i + 1, nil
		default:
			return 0, errAt(b, i, "after object key:value pair")
		}
	}
}

// arrayStart steps into the JSON array at b[i] == '[': it returns the
// first element's offset, or the offset past ']' and done for an empty
// array. A walk consumes each element itself, with no callback, and
// steps to the next with arrayNext.
func arrayStart(b []byte, i int) (int, bool) {
	i = SkipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	return i, false
}

// arrayNext steps over the separator after the element ending at end:
// it returns the next element's offset, or the offset past ']' and done.
func arrayNext(b []byte, end int) (int, bool, error) {
	i := SkipSpace(b, end)
	if i >= len(b) {
		return 0, false, errAt(b, i, "")
	}
	switch b[i] {
	case ',':
		return SkipSpace(b, i+1), false, nil
	case ']':
		return i + 1, true, nil
	}
	return 0, false, errAt(b, i, "after array element")
}

// numberElem rejects a non-number array element: ErrDefer for null,
// which encoding/json accepts into a float64 slot, an error otherwise.
func numberElem(b []byte, i int) error {
	if i < len(b) && (b[i] == '-' || isDigit(b[i])) {
		return nil
	}
	if IsNull(b, i) {
		return ErrDefer
	}
	return errAt(b, i, "in number array")
}

// Floats parses the JSON number array at b[i] == '[' into dst[:0] and
// returns the filled slice (never nil) and the offset past ']'. Numbers
// out of float64 range are errors, as in encoding/json.
func Floats(dst []float64, b []byte, i int) ([]float64, int, error) {
	dst = dst[:0]
	if dst == nil {
		dst = []float64{}
	}
	i, done := arrayStart(b, i)
	for !done {
		if err := numberElem(b, i); err != nil {
			return dst, 0, err
		}
		v, end, err := ParseNumber(b, i)
		if err != nil {
			return dst, 0, err
		}
		dst = append(dst, v)
		if i, done, err = arrayNext(b, end); err != nil {
			return dst, 0, err
		}
	}
	return dst, i, nil
}

// Spans validates the JSON number array at b[i] == '[' without
// converting it, appending each element's [start, end) byte offsets to
// dst[:0]. Element k's text is b[s[2k]:s[2k+1]], and elements j..k with
// their separators are b[s[2j]:s[2k+1]]. Numbers large enough to overflow
// a float64 are converted, so the array is valid exactly when
// encoding/json would decode it into a []float64. Offsets are int32: b
// must be shorter than 2 GiB, which every body cap on the multiply path
// keeps.
func Spans(dst []int32, b []byte, i int) ([]int32, int, error) {
	dst = dst[:0]
	if len(b) > math.MaxInt32 {
		return dst, 0, &SyntaxError{Off: i, Msg: "body too large for span offsets"}
	}
	var n number
	i, done := arrayStart(b, i)
	for !done {
		if err := numberElem(b, i); err != nil {
			return dst, 0, err
		}
		end, err := n.scan(b, i, false)
		if err != nil {
			return dst, 0, err
		}
		// |v| < 10^dp, and 10^308 is below math.MaxFloat64.
		if n.dp > 308 {
			if _, _, err := ParseNumber(b, i); err != nil {
				return dst, 0, err
			}
		}
		dst = append(dst, int32(i), int32(end))
		if i, done, err = arrayNext(b, end); err != nil {
			return dst, 0, err
		}
	}
	return dst, i, nil
}

// Key returns the unquoted text of the quoted object key (raw bytes,
// quotes included, as Object passes it). Only keys with escapes or
// non-ASCII bytes are decoded, by encoding/json.
func Key(quoted []byte) string {
	raw := quoted[1 : len(quoted)-1]
	for _, c := range raw {
		if c == '\\' || c >= 0x80 {
			var s string
			_ = json.Unmarshal(quoted, &s) // cannot fail: Object validated the string
			return s
		}
	}
	return string(raw)
}

// KeyIs reports whether an unquoted object key selects the struct field
// tagged name, as encoding/json matches them: exactly, or else under
// Unicode case folding.
func KeyIs(key, name string) bool { return strings.EqualFold(key, name) }

// AppendFloats appends vs as a JSON array. JSON has no encoding for
// ±Inf and NaN: at the first non-finite element it stops and returns
// that element's index as bad; bad is -1 when every element was written.
func AppendFloats(b []byte, vs []float64) (out []byte, bad int) {
	b = append(b, '[')
	for k, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return b, k
		}
		if k > 0 {
			b = append(b, ',')
		}
		b = AppendFloat(b, v)
	}
	return append(b, ']'), -1
}

// NonFiniteError reports a y element JSON cannot carry.
type NonFiniteError struct {
	Row int
	V   float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("y[%d] = %v is not finite; JSON has no encoding for it", e.Row, e.V)
}

// AppendString appends s as a JSON string exactly as json.Marshal
// writes it (HTML-safe escaping, invalid UTF-8 replaced).
func AppendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// ReadBody reads a request body of at most limit bytes into dst's
// storage. The request's Content-Length only presizes the buffer (see
// ReadAll); a body longer than limit is an error.
func ReadBody(dst []byte, w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	hint := r.ContentLength
	if hint > limit {
		hint = -1
	}
	return ReadAll(dst, http.MaxBytesReader(w, r.Body, limit), hint)
}

// maxPresize bounds the buffer ReadAll allocates on a peer's
// Content-Length alone. Past it the buffer grows only as bytes arrive,
// so a peer that declares a huge length and sends little costs little.
const maxPresize = 1 << 20

// ErrTooLarge reports a body over ReadLimited's limit.
var ErrTooLarge = errors.New("wire: body too large")

// ReadAll reads r to EOF into dst's storage, growing it as needed. A
// positive hint (a Content-Length) presizes the buffer, up to
// maxPresize, so a body of that length is read without a copy.
func ReadAll(dst []byte, r io.Reader, hint int64) ([]byte, error) {
	b := dst[:0]
	if want := min(hint+1, maxPresize); hint > 0 && int64(cap(b)) < want {
		b = make([]byte, 0, want)
	}
	for {
		if len(b) == cap(b) {
			// Double, or stop at the declared length when that is nearer:
			// the buffer never holds more than twice what arrived.
			n := max(cap(b), 512)
			if rest := hint + 1 - int64(len(b)); rest > 0 && rest < int64(n) {
				n = int(rest)
			}
			b = slices.Grow(b, n)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// ReadLimited is ReadAll for a body from a peer that has no cap of its
// own, such as an upstream response: more than limit bytes is
// ErrTooLarge.
func ReadLimited(dst []byte, r io.Reader, hint, limit int64) ([]byte, error) {
	b, err := ReadAll(dst, io.LimitReader(r, limit+1), hint)
	if err == nil && int64(len(b)) > limit {
		err = fmt.Errorf("%w: over %d bytes", ErrTooLarge, limit)
	}
	return b, err
}

// Pool recycles slices through a sync.Pool. Only sync.Pool holds them,
// so two garbage collections release every idle buffer: pooling never
// raises the heap a quiet server keeps.
type Pool[T any] struct{ p sync.Pool }

// Get returns an empty slice, with capacity left by an earlier Put when
// one is available. Hand the same pointer back to Put.
func (p *Pool[T]) Get() *[]T {
	if v, ok := p.p.Get().(*[]T); ok {
		return v
	}
	return new([]T)
}

// Put recycles *s. The caller must not touch the slice afterwards.
func (p *Pool[T]) Put(s *[]T) {
	*s = (*s)[:0]
	p.p.Put(s)
}
