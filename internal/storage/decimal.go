package storage

import (
	"fmt"
	"math"
	"strconv"
)

// Doubles written as decimals: a reading at 0.01 resolution is the integer
// m with m/10^2 bit-identical to it, which varint-codes in two or three
// bytes where its eight raw bytes or its text would not. The WAL's column
// records and the RCFile zone maps code doubles this way.

// MaxDecimalExp is the largest exponent Decimal takes: every 10^e up to it
// is exact in a float64.
const MaxDecimalExp = 18

var pow10 = func() (p [MaxDecimalExp + 1]float64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// Pow10 returns 10^e for 0 ≤ e ≤ MaxDecimalExp.
func Pow10(e int) float64 { return pow10[e] }

// Decimal returns the m with float64(m)/10^e bit-identical to f, if any.
func Decimal(f float64, e int) (int64, bool) {
	// RoundToEven, unlike Round, is one instruction on amd64.
	x := math.RoundToEven(f * pow10[e])
	if !(math.Abs(x) <= 1<<53) { // also false for NaN
		return 0, false
	}
	m := int64(x)
	return m, math.Float64bits(float64(m)/pow10[e]) == math.Float64bits(f)
}

// DecimalExp returns the smallest e ≥ from that Decimal accepts for f, or
// -1 if none up to MaxDecimalExp does.
func DecimalExp(f float64, from int) int {
	for e := from; e <= MaxDecimalExp; e++ {
		if _, ok := Decimal(f, e); ok {
			return e
		}
	}
	return -1
}

// parseDouble is strconv.ParseFloat(field, 64), its error wrapped as the
// decoders report it. A plain decimal — an optional '-', digits and an
// optional '.' followed by digits, at most 15 digits in all — is
// float64(m)/10^k for its digits m and its k fraction digits: m < 2^53 and
// 10^k ≤ 10^15 are exact, so the one IEEE division rounds correctly and
// gives strconv's value (Clinger's fast path). Anything else — a sign of
// '+', an exponent, a 16th digit, Inf, NaN — goes to strconv.
func parseDouble[T string | []byte](field T) (float64, error) {
	if f, ok := parseDecimal(field); ok {
		return f, nil
	}
	f, err := strconv.ParseFloat(string(field), 64)
	if err != nil {
		return 0, fmt.Errorf("storage: parse double %q: %w", field, err)
	}
	return f, nil
}

// parseDecimal is parseDouble's fast path; ok is false where it does not
// apply.
func parseDecimal[T string | []byte](field T) (float64, bool) {
	i, neg := 0, len(field) > 0 && field[0] == '-'
	if neg {
		i++
	}
	var m uint64
	digits, point := 0, -1
	for ; i < len(field); i++ {
		switch d := field[i]; {
		case d >= '0' && d <= '9':
			m = m*10 + uint64(d-'0')
			digits++
		case d == '.' && point < 0 && digits > 0:
			point = digits
		default:
			return 0, false
		}
	}
	if digits == 0 || digits > 15 || point == digits {
		return 0, false
	}
	f := float64(m)
	if point >= 0 {
		f /= pow10[digits-point]
	}
	if neg {
		f = -f
	}
	return f, true
}
