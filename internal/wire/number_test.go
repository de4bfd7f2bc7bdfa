package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refScan is the two-pass number scan the one-pass codec replaced: it
// validates the JSON number grammar at b[i] and returns the number's
// end. It is kept as the oracle for ParseNumber.
func refScan(b []byte, i int) (int, error) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return 0, errAt(b, i, "")
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	default:
		return 0, errAt(b, i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return 0, errAt(b, i, "after decimal point in numeric literal")
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, errAt(b, i, "in exponent of numeric literal")
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	return i, nil
}

// refParse is refScan followed by strconv.ParseFloat of the token.
func refParse(b []byte, i int) (float64, int, error) {
	end, err := refScan(b, i)
	if err != nil {
		return 0, 0, err
	}
	v, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return 0, 0, rangeError(b, i, end)
	}
	return v, end, nil
}

// checkParseNumber compares ParseNumber on b with the oracle: the same
// verdict, error text, end offset and bits. Valid numbers are also
// checked through Spans, whose overflow check must agree.
func checkParseNumber(t testing.TB, b []byte) {
	v, end, err := ParseNumber(b, 0)
	want, wantEnd, wantErr := refParse(b, 0)
	if errText(err) != errText(wantErr) || end != wantEnd ||
		math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("ParseNumber(%q) = %v (%#x), end %d, err %v; strconv gives %v (%#x), end %d, err %v",
			b, v, math.Float64bits(v), end, err, want, math.Float64bits(want), wantEnd, wantErr)
	}
	tok, scanErr := refScan(b, 0)
	if scanErr != nil {
		return
	}
	arr := append(append([]byte{'['}, b[:tok]...), ']')
	_, _, spanErr := Spans(nil, arr, 0)
	if wantErr != nil {
		wantErr = rangeError(arr, 1, tok+1) // the same error, one byte on
	}
	if errText(spanErr) != errText(wantErr) {
		t.Fatalf("Spans(%s): err %v, strconv gives %v", arr, spanErr, wantErr)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// eachNumber calls f with n JSON numbers and near misses that stress
// every path of the parser: the classic hard cases, strconv's own text
// for random bit patterns at random precisions, mantissas longer than 19
// digits, leading-zero fractions, exponents at the edges of float64
// range and numbers with one byte changed. f must not keep b.
func eachNumber(n int, f func(b []byte)) {
	fixed := []string{
		"0", "-0", "0.0", "-0.0e5", "0e-400", "0e400", "1", "-1", "9007199254740993",
		"9007199254740992", "9007199254740991", "18446744073709551615", "18446744073709551616",
		"1e23", "8.98846567431158e307", "4.9e-324", "5e-324", "2.4703282292062327e-324",
		"2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072012e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"-1.7976931348623159e308", "1e308", "1e309", "1e-400", "123456789012345678e-30",
		"0.1", "0.30000000000000004", "1E22", "1E+22", "1e-22", "1e00000000000000000001",
		"1e-99999999999999999999", "1e99999999999999999999", "0.000000000000000000000000001e27",
		"1" + strings.Repeat("0", 400) + "e-400", "0." + strings.Repeat("0", 400) + "1e400",
		"0." + strings.Repeat("0", 150000) + "1e150005", "1" + strings.Repeat("0", 20000) + "e-20000",
		"-", "01", "1.", ".5", "1e", "1e+", "+1", "1.5x", "--1", "-a", "1.e3", "1e3.5", "",
	}
	for _, s := range fixed {
		f([]byte(s))
	}
	rng := rand.New(rand.NewSource(14))
	digits := func(b []byte, k int) []byte {
		b = append(b, byte('1'+rng.Intn(9)))
		for ; k > 1; k-- {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		return b
	}
	var b []byte
	for k := len(fixed); k < n; k++ {
		b = b[:0]
		switch r := rng.Intn(64); {
		case r < 40: // strconv's text for a random finite float64
			v := math.Float64frombits(rng.Uint64())
			for math.IsInf(v, 0) || math.IsNaN(v) {
				v = math.Float64frombits(rng.Uint64())
			}
			switch rng.Intn(3) {
			case 0:
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			case 1:
				b = strconv.AppendFloat(b, v, 'e', rng.Intn(21)-1, 64)
			default:
				if math.Abs(v) > 1e40 || math.Abs(v) < 1e-40 {
					v = math.Ldexp(v, -math.Ilogb(v)+rng.Intn(80)-40)
				}
				b = strconv.AppendFloat(b, v, 'f', rng.Intn(25)-1, 64)
			}
			if e := bytes.IndexByte(b, 'e'); e >= 0 && rng.Intn(4) == 0 {
				b[e] = 'E'
			}
		case r < 42: // 20 to 40 significant digits (strconv's slow path)
			nd := 20 + rng.Intn(21)
			p := rng.Intn(nd + 1) // digits before the point
			if p == 0 {
				b = append(b, '0')
			} else {
				b = digits(b, p)
			}
			if p < nd {
				b = digits(append(b, '.'), nd-p)
			}
			b = strconv.AppendInt(append(b, 'e'), int64(rng.Intn(700)-350), 10)
		case r < 52: // leading-zero fractions
			if rng.Intn(2) == 0 {
				b = append(b, '-')
			}
			b = append(b, "0."...)
			for z := rng.Intn(30); z > 0; z-- {
				b = append(b, '0')
			}
			b = digits(b, 1+rng.Intn(19))
		case r < 54: // exponents at the edges of float64 range (strconv's slow path)
			e := 280 + rng.Intn(70)
			if rng.Intn(2) == 0 {
				e = -300 - rng.Intn(60)
			}
			b = digits(append(digits(b, 1), '.'), 1+rng.Intn(18))
			b = strconv.AppendInt(append(b, 'e'), int64(e), 10)
		default: // a short number with one byte changed
			b = strconv.AppendFloat(b, rng.NormFloat64(), 'g', -1, 64)
			b[rng.Intn(len(b))] = "0123456789-+.eE x"[rng.Intn(17)]
		}
		f(b)
	}
}

// TestParseNumberMatchesStrconv: ParseNumber agrees with the two-pass
// scan plus strconv.ParseFloat on over a million strings.
func TestParseNumberMatchesStrconv(t *testing.T) {
	eachNumber(1<<20, func(b []byte) { checkParseNumber(t, b) })
}

func FuzzParseNumber(f *testing.F) {
	eachNumber(96, func(b []byte) {
		if len(b) < 1000 {
			f.Add(bytes.Clone(b))
		}
	})
	f.Fuzz(func(t *testing.T, b []byte) { checkParseNumber(t, b) })
}

// checkAppendFloat compares AppendFloat with json.Marshal and parses
// the text back to the same bits.
func checkAppendFloat(t testing.TB, v float64) {
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendFloat(nil, v)
	if string(got) != string(want) {
		t.Fatalf("AppendFloat(%v) = %s, json.Marshal gives %s", v, got, want)
	}
	if back, _, err := ParseNumber(got, 0); err != nil || math.Float64bits(back) != math.Float64bits(v) {
		t.Fatalf("%s parses back as %v, err %v; want %v", got, back, err, v)
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatCases()[:64] {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		if v := math.Float64frombits(bits); !math.IsInf(v, 0) && !math.IsNaN(v) {
			checkAppendFloat(t, v)
		}
	})
}
