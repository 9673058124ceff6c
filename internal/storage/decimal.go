package storage

import "math"

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
