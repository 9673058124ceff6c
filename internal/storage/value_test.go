package storage

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
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
