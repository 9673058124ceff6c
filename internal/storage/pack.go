package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The frame-of-reference codec the WAL's records and the RCFile's packed
// columns share. A packed integer column of n cells is
//
//	svar  min, the column's least value
//	byte  w, the fewest bits that hold its greatest offset, at least 1
//	      ⌈n·w/8⌉ bytes: cell i's offset v − min fills bits i·w to
//	      i·w+w−1, counting each byte from its low bit; the bits after the
//	      last cell are zero
//
// and a packed decimal column the same behind a byte e, its cells the
// mantissas m of the doubles float64(m)/10^e (see Decimal). The decoders
// accept only that spelling: the least cell as min, the fewest bits, zero
// padding, a width of 1..64, min + offset within int64.

// PackWidth is the packed width of a column whose greatest offset is span:
// the fewest bits that hold it, at least 1.
func PackWidth(span uint64) int { return max(1, bits.Len64(span)) }

// PackedLen is the byte length of n cells packed at w bits.
func PackedLen(n, w int) int { return (n*w + 7) / 8 }

// PackedSize is the byte length AppendPacked gives n cells ranging over
// [lo, hi].
func PackedSize(n int, lo, hi int64) int {
	return int(varintLen(lo)) + 1 + PackedLen(n, PackWidth(uint64(hi)-uint64(lo)))
}

// AppendPacked appends vals, whose least and greatest values are lo and hi,
// as a packed integer column.
func AppendPacked(dst []byte, vals []int64, lo, hi int64) []byte {
	w := PackWidth(uint64(hi) - uint64(lo))
	dst = binary.AppendVarint(dst, lo)
	dst = append(dst, byte(w))
	p := packer{w: uint(w)}
	for _, v := range vals {
		dst = p.put(dst, uint64(v)-uint64(lo))
	}
	return p.flush(dst)
}

// DecimalRange returns the exponent e a packed decimal column of vals takes
// and its least and greatest mantissa. e is guessed from the first cell, and
// every cell is checked through the integer it would be written as; a cell
// that needs a larger e restarts the column with it. e is −1 when some cell
// no e up to MaxDecimalExp carries (−0, NaN, ±Inf, most random doubles), or
// when vals is empty.
func DecimalRange(vals []float64) (e int, lo, hi int64) {
	if len(vals) == 0 {
		return -1, 0, 0
	}
	e = DecimalExp(vals[0], 0)
scan:
	for e >= 0 {
		lo, hi = math.MaxInt64, math.MinInt64
		for _, f := range vals {
			m, ok := Decimal(f, e)
			if !ok {
				e = DecimalExp(f, e+1)
				continue scan
			}
			lo, hi = min(lo, m), max(hi, m)
		}
		return e, lo, hi
	}
	return -1, 0, 0
}

// AppendPackedDecimal appends vals as a packed decimal column at exponent
// e, their mantissas ranging over [lo, hi]: what DecimalRange returns.
func AppendPackedDecimal(dst []byte, vals []float64, e int, lo, hi int64) []byte {
	w := PackWidth(uint64(hi) - uint64(lo))
	dst = append(dst, byte(e))
	dst = binary.AppendVarint(dst, lo)
	dst = append(dst, byte(w))
	p := packer{w: uint(w)}
	for _, f := range vals {
		m, _ := Decimal(f, e)
		dst = p.put(dst, uint64(m)-uint64(lo))
	}
	return p.flush(dst)
}

// UnpackInts decodes a packed integer column of len(dst) cells from the
// front of src into dst and returns the bytes it took. It refuses every
// spelling but AppendPacked's.
func UnpackInts(src []byte, dst []int64) (int, error) {
	return unpackCells(src, dst, 0)
}

// UnpackDecimals decodes a packed decimal column of len(dst) cells from the
// front of src into dst and returns the bytes it took. It refuses every
// spelling but AppendPackedDecimal's.
func UnpackDecimals(src []byte, dst []float64) (int, error) {
	if len(src) == 0 {
		return 0, errPackedTruncated
	}
	e := int(src[0])
	if e > MaxDecimalExp {
		return 0, fmt.Errorf("decimal exponent %d exceeds %d", e, MaxDecimalExp)
	}
	n, err := unpackCells(src[1:], dst, pow10[e])
	return n + 1, err
}

var errPackedTruncated = errors.New("truncated packed column")

// unpackCells reads svar min, byte w and len(dst) offsets; each cell is min
// + its offset, divided by scale unless scale is 0.
func unpackCells[T int64 | float64](src []byte, dst []T, scale float64) (int, error) {
	lo, n := binary.Varint(src)
	if n <= 0 || n == len(src) {
		return 0, errPackedTruncated
	}
	w := int(src[n])
	if w == 0 || w > 64 {
		return 0, fmt.Errorf("packed width %d outside 1..64", w)
	}
	n++
	size := PackedLen(len(dst), w)
	if len(src)-n < size {
		return 0, errPackedTruncated
	}
	body := src[n : n+size]
	if tail := len(dst) * w % 8; tail != 0 && body[len(body)-1]>>tail != 0 {
		return 0, errors.New("padding bits set after the last cell")
	}
	u := unpacker{buf: body, w: uint(w), mask: ^uint64(0) >> (64 - w)}
	least, most := ^uint64(0), uint64(0)
	base := uint64(lo)
	for i := range dst {
		off := u.get()
		least, most = min(least, off), max(most, off)
		if scale == 0 {
			dst[i] = T(int64(base + off))
		} else {
			dst[i] = T(float64(int64(base+off)) / scale)
		}
	}
	switch {
	case least != 0:
		return 0, fmt.Errorf("min %d is below every cell", lo)
	case most > math.MaxInt64-base:
		return 0, fmt.Errorf("min %d + offset %d overflows int64", lo, most)
	case PackWidth(most) != w:
		return 0, fmt.Errorf("width %d, its offsets need %d", w, PackWidth(most))
	}
	return n + size, nil
}

// varintLen is the byte length of v as a svarint.
func varintLen(v int64) int64 {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

// packer appends offsets packed at w bits, LSB first.
type packer struct {
	acc  uint64 // the packed bits not yet appended, from bit 0
	n, w uint   // len(acc) in bits; the width
}

// put packs v, which must fit in w bits.
func (p *packer) put(dst []byte, v uint64) []byte {
	p.acc |= v << p.n
	if p.n += p.w; p.n < 64 {
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, p.acc)
	p.n -= 64
	p.acc = v >> (p.w - p.n) // 0 when v ended exactly at the word's end
	return dst
}

// flush appends the bits put has not, zero-padded to a byte.
func (p *packer) flush(dst []byte) []byte {
	for i := uint(0); i < p.n; i += 8 {
		dst = append(dst, byte(p.acc>>i))
	}
	return dst
}

// unpacker reads offsets packed at w bits, LSB first.
type unpacker struct {
	buf  []byte // the bytes not yet loaded into acc
	acc  uint64 // loaded bits not yet read, from bit 0
	n, w uint   // len(acc) in bits; the width
	mask uint64 // the low w bits
}

func (u *unpacker) get() uint64 {
	if u.n >= u.w {
		v := u.acc & u.mask
		u.acc >>= u.w
		u.n -= u.w
		return v
	}
	var next uint64
	k := uint(64)
	if len(u.buf) >= 8 {
		next, u.buf = binary.LittleEndian.Uint64(u.buf), u.buf[8:]
	} else {
		for i, b := range u.buf {
			next |= uint64(b) << (8 * i)
		}
		k, u.buf = uint(8*len(u.buf)), nil
	}
	v := (u.acc | next<<u.n) & u.mask
	used := u.w - u.n
	u.acc, u.n = next>>used, k-used
	return v
}
