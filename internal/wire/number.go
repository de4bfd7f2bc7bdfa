package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// number is a scanned JSON number: ±man × 10^exp10, exact unless trunc.
// dp bounds the magnitude strconv.ParseFloat reads: |value| < 10^dp.
type number struct {
	man       uint64
	exp10, dp int
	neg       bool
	trunc     bool // a nonzero digit past the 19th was dropped
}

// maxMantDigits is the most significant digits man holds: 10^19 fits a
// uint64.
const maxMantDigits = 19

// maxExp stops the exponent accumulating, at the point and in the way
// strconv.ParseFloat stops it, so that even a number with tens of
// thousands of leading zeros gets strconv's decimal exponent.
const maxExp = 10000

// scan validates the JSON number at b[i] and returns its end. It always
// sets dp; with collect it also gathers the first 19 significant digits
// and the decimal exponent on the way, so n converts with float.
func (n *number) scan(b []byte, i int, collect bool) (int, error) {
	// Locals, not n's fields, carry the digit loops: they stay in
	// registers.
	var man uint64
	nd, dp := 0, 0 // significant digits taken into man; decimal point
	neg, trunc := false, false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	switch {
	case i >= len(b):
		return 0, errAt(b, i, "")
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		start := i
		if collect {
			i, man, nd, trunc = takeDigits(b, i, 0, 0)
		} else {
			i = skipDigits(b, i)
		}
		dp = i - start
	default:
		return 0, errAt(b, i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return 0, errAt(b, i, "after decimal point in numeric literal")
		}
		if dp == 0 { // the integer part is 0: skip leading zeros
			for ; i < len(b) && b[i] == '0'; i++ {
				dp--
			}
		}
		if collect {
			var t bool
			i, man, nd, t = takeDigits(b, i, man, nd)
			trunc = trunc || t
		} else {
			i = skipDigits(b, i)
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, errAt(b, i, "in exponent of numeric literal")
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < maxExp {
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	*n = number{man: man, dp: dp, neg: neg, trunc: trunc}
	if man != 0 {
		n.exp10 = dp - nd
	}
	return i, nil
}

// takeDigits takes the run of digits at b[i:] into man, which holds nd
// significant digits already (with nd 0, the run must not start with a
// zero), and returns the end of the run. Digits past the 19th are
// dropped; trunc reports a nonzero one among them.
func takeDigits(b []byte, i int, man uint64, nd int) (end int, _ uint64, _ int, trunc bool) {
	// Up to eight digits a step (SWAR) while man has room for eight.
	for nd <= maxMantDigits-8 && len(b)-i >= 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		k := leadingDigits(v)
		// Shift the k digits to the top and pad below with '0's.
		man = man*uint64pow10[k] + parseEight(v<<(64-8*k)|0x3030303030303030>>(8*k))
		nd += k
		i += k
		if k < 8 {
			return i, man, nd, false
		}
	}
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if nd < maxMantDigits {
			man = man*10 + uint64(c)
			nd++
		} else if c != 0 {
			trunc = true
		}
	}
	return i, man, nd, trunc
}

// skipDigits returns the end of the run of digits at b[i:].
func skipDigits(b []byte, i int) int {
	for len(b)-i >= 8 {
		k := leadingDigits(binary.LittleEndian.Uint64(b[i:]))
		i += k
		if k < 8 {
			return i
		}
	}
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// leadingDigits counts the ASCII digits that start the little-endian
// word v (its low bytes). A non-digit can carry into the bytes above
// it, but those are not counted.
func leadingDigits(v uint64) int {
	const hi = 0xF0F0F0F0F0F0F0F0
	bad := (v&hi | (v+0x0606060606060606)&hi>>4) ^ 0x3333333333333333
	return bits.TrailingZeros64(bad) >> 3
}

// parseEight returns the value of the eight ASCII digits in the
// little-endian word v, first digit lowest (SWAR, as in fast_float).
func parseEight(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	const mul1 = 100 + 1000000<<32
	const mul2 = 1 + 10000<<32
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return (v&mask*mul1 + v>>16&mask*mul2) >> 32
}

var uint64pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// float converts n, scanned from text with collect, to the float64
// strconv.ParseFloat gives; ok is false when it is out of float64 range.
func (n *number) float(text []byte) (v float64, ok bool) {
	if !n.trunc {
		if n.man < 1<<53 && -22 <= n.exp10 && n.exp10 <= 22 {
			// Clinger's fast path: man and 10^|exp10| are exact, so one
			// correctly rounded multiply or divide is the answer.
			v = float64(n.man)
			if n.exp10 < 0 {
				v /= float64pow10[-n.exp10]
			} else {
				v *= float64pow10[n.exp10]
			}
			if n.neg {
				v = -v
			}
			return v, true
		}
		if v, ok := eiselLemire64(n.man, n.exp10, n.neg); ok {
			return v, true
		}
	}
	// More than 19 digits, a case Eisel–Lemire cannot decide, or the
	// edge of the float64 range: subnormal, overflow, or beyond its
	// power table.
	v, err := strconv.ParseFloat(string(text), 64)
	return v, err == nil
}

func rangeError(b []byte, i, end int) error {
	return &SyntaxError{Off: i, Msg: "number " + string(b[i:end]) + " out of float64 range"}
}

// ParseNumber parses the JSON number at b[i] as encoding/json decodes
// it into a float64, and returns it with the offset past its text. A
// number out of float64 range is an error, as in encoding/json.
func ParseNumber(b []byte, i int) (float64, int, error) {
	var n number
	end, err := n.scan(b, i, true)
	if err != nil {
		return 0, 0, err
	}
	v, ok := n.float(b[i:end])
	if !ok {
		return 0, 0, rangeError(b, i, end)
	}
	return v, end, nil
}

// AppendFloat appends v as encoding/json writes a float64: the shortest
// digits that round-trip, in 'f' form except for magnitudes below 1e-6
// or from 1e21 up, which use 'e' with the exponent in as few digits as
// it needs ("1e-7", "1e+21"). v must be finite.
func AppendFloat(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7FF
	mant := bits & (1<<52 - 1)
	if exp == 0 {
		exp++ // subnormal
	} else {
		mant |= 1 << 52
	}
	var buf [32]byte
	d := decimalSlice{d: buf[:]}
	ryuFtoaShortest(&d, mant, exp-1023-52)
	digits := d.d[:d.nd]

	if bits>>63 != 0 {
		b = append(b, '-')
	}
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = append(b, digits[0])
		if len(digits) > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		e, sign := d.dp-1, byte('+')
		if e < 0 {
			e, sign = -e, '-'
		}
		b = append(b, 'e', sign)
		if e >= 100 {
			b = append(b, byte(e/100)+'0')
		}
		if e >= 10 {
			b = append(b, byte(e/10%10)+'0')
		}
		return append(b, byte(e%10)+'0')
	}
	switch {
	case d.nd == 0:
		return append(b, '0')
	case d.dp <= 0: // 0.000ddd
		b = append(b, '0', '.')
		for k := d.dp; k < 0; k++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	case d.dp >= d.nd: // ddd000
		b = append(b, digits...)
		for k := d.nd; k < d.dp; k++ {
			b = append(b, '0')
		}
		return b
	}
	b = append(b, digits[:d.dp]...)
	b = append(b, '.')
	return append(b, digits[d.dp:]...)
}
