package storage

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// TestAppendTextFloatMatchesStrconv holds AppendText's whole-cent fast path
// to strconv's shortest 'g' rendering byte for byte: every cent below
// 100,000, the last 1,000 cents below the bound (where 'g' would switch to
// exponent form), and 5,000,000 random doubles — raw bit patterns (NaN
// payloads, ±Inf, subnormals, negatives) and cents nudged by an ulp either
// way, which are not whole cents and must fall back.
func TestAppendTextFloatMatchesStrconv(t *testing.T) {
	var got, want []byte
	failures := 0
	check := func(f float64) {
		got = Float64(f).AppendText(got[:0])
		want = strconv.AppendFloat(want[:0], f, 'g', -1, 64)
		if !bytes.Equal(got, want) && failures < 10 {
			failures++
			t.Errorf("AppendText(%x) = %q, strconv renders %q", math.Float64bits(f), got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
		0.004, 0.005, 0.0049999999, 999999.99, 999999.994, 999999.995, 1e6, 1e6 + 0.01, 1e9, 116661458.21,
		-0.01, -1.5, -999999.99} {
		check(f)
	}
	for c := int64(1); c < 100_000*100; c++ {
		check(float64(c) / 100)
	}
	for c := int64(maxCentsText*100) - 1000; c <= int64(maxCentsText*100)+10; c++ {
		check(float64(c) / 100)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5_000_000; i++ {
		switch i % 4 {
		case 0, 1:
			check(math.Float64frombits(rng.Uint64()))
		case 2:
			f := float64(rng.Int63n(int64(maxCentsText*100))) / 100
			check(math.Nextafter(f, math.Inf(2*rng.Intn(2)-1)))
		default:
			check(-float64(rng.Int63n(int64(maxCentsText*100))) / 100)
		}
	}
}

// TestParseDoubleMatchesStrconv holds parseDouble — its exact fast path
// and its fallback — to strconv.ParseFloat over the string and the byte
// view: the same bits where strconv parses, an error where it does not.
// The inputs are every cent below 100,000 with both signs, in the shortest
// form the writers render ("12", "12.3", "12.34"), the last 1,000 cents
// below 1e6, 5,000,000 random decimals of 1 to 15 digits with the point
// anywhere, and the shapes at the fast path's edges.
func TestParseDoubleMatchesStrconv(t *testing.T) {
	t.Parallel()
	failures := 0
	check := func(b []byte) {
		s := string(b)
		want, werr := strconv.ParseFloat(s, 64)
		got, gerr := parseDouble(s)
		gotB, gerrB := parseDouble(b)
		same := func(f float64, err error) bool {
			return (err != nil) == (werr != nil) && (werr != nil || math.Float64bits(f) == math.Float64bits(want))
		}
		if !(same(got, gerr) && same(gotB, gerrB)) && failures < 10 {
			failures++
			t.Errorf("parseDouble(%q) = %v, %v (byte view %v, %v); strconv says %v, %v", s, got, gerr, gotB, gerrB, want, werr)
		}
	}
	for _, s := range []string{"0", "-0", "0.0", "-0.0", ".5", "5.", "-.5", "-5.", "+5", "+0.5", "1e3", "1E3", "1.5e-3",
		"123456789012345", "-123456789012345", "1234567890123456", "12345678901234567", "9007199254740993",
		"0.000000000000001", "0.0000000000000001", "999999999999999.9", "99999999999999.99",
		"Inf", "-Inf", "+Inf", "inf", "Infinity", "NaN", "nan", "", "-", ".", "-.", "1.2.3", "1..2", "--1", "1-",
		" 1", "1 ", "1_000", "0x10", "0x1p-2", "1e400", "-1e400", "007.50", "00000000000000000001"} {
		check([]byte(s))
	}
	var buf []byte
	cents := func(neg bool, c int64) []byte {
		buf = buf[:0]
		if neg {
			buf = append(buf, '-')
		}
		buf = strconv.AppendInt(buf, c/100, 10)
		switch frac := c % 100; {
		case frac%10 != 0:
			buf = append(buf, '.', byte('0'+frac/10), byte('0'+frac%10))
		case frac != 0:
			buf = append(buf, '.', byte('0'+frac/10))
		}
		return buf
	}
	for c := int64(0); c < 100_000*100; c++ {
		check(cents(false, c))
		check(cents(true, c))
	}
	for c := int64(1e8) - 1000; c < 1e8; c++ {
		check(cents(false, c))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5_000_000; i++ {
		r := rng.Uint64()
		n := 1 + int(r%15)
		point := int(r / 15 % uint64(n+1)) // n: no point
		buf = buf[:0]
		if r>>63 != 0 {
			buf = append(buf, '-')
		}
		digits := rng.Uint64()
		for d := 0; d < n; d++ {
			if d == point && d > 0 {
				buf = append(buf, '.')
			}
			buf = append(buf, byte('0'+digits%10))
			digits /= 10
		}
		check(buf)
	}
}

// TestParseTimeStrMatchesTime holds parseTimeStr, over the string and the
// byte view, to time.ParseInLocation in both layouts: every day from
// 0000-01-01 to 9999-12-31 alone, at 00:00:00 and at 23:59:59, and for
// every year the days 0, 28 to 32 of months 0 to 13 — each refused exactly
// where time refuses it.
func TestParseTimeStrMatchesTime(t *testing.T) {
	t.Parallel()
	failures := 0
	check := func(b []byte) {
		s := string(b)
		layout := dateLayout
		if len(s) == len(dateTimeLayout) {
			layout = dateTimeLayout
		}
		want, werr := time.ParseInLocation(layout, s, time.UTC)
		got, ok := parseTimeStr(s)
		gotB, okB := parseTimeStr(b)
		if (ok != (werr == nil) || okB != ok || ok && (got != want.Unix() || gotB != got)) && failures < 10 {
			failures++
			t.Errorf("parseTimeStr(%q) = %d, %v (byte view %d, %v); time says %d, %v", s, got, ok, gotB, okB, want.Unix(), werr)
		}
	}
	var buf []byte
	date := func(y, m, d int) []byte {
		buf = append(buf[:0], byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
			byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d/10), byte('0'+d%10))
		return buf
	}
	for y := 0; y < 10000; y++ {
		for m := 1; m <= 12; m++ {
			for d := 1; d <= time.Date(y, time.Month(m)+1, 0, 0, 0, 0, 0, time.UTC).Day(); d++ {
				check(date(y, m, d))
				check(append(date(y, m, d), " 00:00:00"...))
				check(append(date(y, m, d), " 23:59:59"...))
			}
		}
		for m := 0; m <= 13; m++ {
			for _, d := range []int{0, 28, 29, 30, 31, 32} {
				check(date(y, m, d))
			}
		}
	}
	for _, s := range []string{"1900-02-29", "2000-02-29", "2100-02-29", "2400-02-29",
		"2012-12-30 24:00:00", "2012-12-30 23:60:00", "2012-12-30 23:59:60", "2012-12-30 99:99:99",
		"2012-12-30T00:00:00", "2012-12-30 00-00-00", "2012/12/30", "20121230xx", "-012-12-30", "+012-12-30",
		"2012-1-301", "2012-12-3 ", " 2012-12-30", "2012-12-30 0:00:000", "2012-12-30 00:00:0a"} {
		check([]byte(s))
	}
}
