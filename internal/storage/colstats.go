package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// GroupStat records the shape of one flushed row group: its row count, the
// payload size of every column, and the group's per-column zone map (see
// Zone). Together with the group's offset it makes the cost of a projected
// read exactly computable without touching the data file, and lets planners
// skip groups whose zone is disjoint from a predicate's range. A group
// without a zone map is never skipped.
//
// A group has two sizes. ColLens are the payloads on disk, which place the
// file's groups. Charged are the payloads Hive's RCFile would store for the
// same rows — numbers as text, plain or run-length coded — which every
// simulated cost and size is charged by (ChargedSize, ProjectedSize); they
// differ only where a column is packed.
type GroupStat struct {
	Rows    int
	ColLens []int64
	// Encs holds the group's per-column encoding tags (EncPlain/EncDict/
	// EncRLE/EncPacked/EncPackedDecimal); nil for plain 'R' groups.
	Encs []byte
	// Charged holds the column payload lengths Hive's RCFile would store;
	// nil when they are ColLens (no column is packed). hiveEncs holds that
	// group's tags (EncPlain throughout for a plain 'R' group); set with
	// Charged.
	Charged  []int64
	hiveEncs []byte
	// zones holds the zone maps of the file's groups, this group's at row
	// zone; nil for a group without one.
	zones *zoneMaps
	zone  int
}

// zoneMaps holds the zone maps of one file's groups column by column, every
// bound in its column's kind; a group's zone map is one row.
type zoneMaps struct {
	kinds []Kind
	cols  []zoneColumn
}

// zoneColumn holds one column's bounds, two a row: a bigint or timestamp
// bound, or a double's bits, in num; a string bound in str. A row whose ok
// is false has no zone for the column.
type zoneColumn struct {
	ok  []bool
	num []int64
	str []string
}

func kindsOf(schema *Schema) []Kind {
	kinds := make([]Kind, schema.Len())
	for c := range kinds {
		kinds[c] = schema.Col(c).Kind
	}
	return kinds
}

func newZoneMaps(kinds []Kind) *zoneMaps {
	return &zoneMaps{kinds: kinds, cols: make([]zoneColumn, len(kinds))}
}

// add appends a row with no zone for any column and returns its index.
func (m *zoneMaps) add() int {
	row := 0
	for c := range m.cols {
		col := &m.cols[c]
		row = len(col.ok)
		col.ok = append(col.ok, false)
		if m.kinds[c] == KindString {
			col.str = append(col.str, "", "")
		} else {
			col.num = append(col.num, 0, 0)
		}
	}
	return row
}

// set gives column c the zone [lo, hi] in row, both of the column's kind.
func (m *zoneMaps) set(row, c int, lo, hi Value) {
	col := &m.cols[c]
	col.ok[row] = true
	switch m.kinds[c] {
	case KindString:
		col.str[2*row], col.str[2*row+1] = lo.S, hi.S
	case KindFloat64:
		col.num[2*row], col.num[2*row+1] = int64(math.Float64bits(lo.F)), int64(math.Float64bits(hi.F))
	default:
		col.num[2*row], col.num[2*row+1] = lo.I, hi.I
	}
}

// Zone returns column c's value range over the group, typed in the column's
// kind. Each bound is the value ParseValue(kind, cell.String()) returns for
// the group's least or greatest cell by Compare: what a planner reading the
// bound back from its text would compare. ok is false when the group has no
// zone map, or when the column's extreme cells do not read back in its kind;
// such a column rules nothing out.
func (g GroupStat) Zone(c int) (min, max Value, ok bool) {
	if g.zones == nil || c < 0 || c >= len(g.zones.cols) {
		return Value{}, Value{}, false
	}
	col := &g.zones.cols[c]
	if !col.ok[g.zone] {
		return Value{}, Value{}, false
	}
	i := 2 * g.zone
	switch kind := g.zones.kinds[c]; kind {
	case KindString:
		return Str(col.str[i]), Str(col.str[i+1]), true
	case KindFloat64:
		return Float64(math.Float64frombits(uint64(col.num[i]))), Float64(math.Float64frombits(uint64(col.num[i+1]))), true
	default:
		return Value{Kind: kind, I: col.num[i]}, Value{Kind: kind, I: col.num[i+1]}, true
	}
}

// zoneOf types a group's extreme cells in the column's kind.
func zoneOf(kind Kind, min, max Value) (lo, hi Value, ok bool) {
	lo, okLo := zoneBound(kind, min)
	hi, okHi := zoneBound(kind, max)
	return lo, hi, okLo && okHi
}

// zoneBound returns ParseValue(kind, v.String()) and whether it parsed. A
// cell of the column's kind reads back as itself, except that every NaN
// reads back as the one NaN ParseFloat returns and a timestamp outside
// years 0000–9999 renders in a layout the parser may refuse; only those
// and cells of another kind go through the text.
func zoneBound(kind Kind, v Value) (Value, bool) {
	if v.Kind == kind {
		switch kind {
		case KindInt64:
			return Int64(v.I), true
		case KindString:
			return Str(v.S), true
		case KindFloat64:
			if v.F != v.F {
				return Float64(math.NaN()), true
			}
			return Float64(v.F), true
		case KindTime:
			if v.I >= minLayoutUnix && v.I <= maxLayoutUnix {
				return TimeUnix(v.I), true
			}
		}
	}
	b, err := ParseValue(kind, v.String())
	return b, err == nil
}

// HasZone reports whether the group carries a zone map.
func (g GroupStat) HasZone() bool { return g.zones != nil }

// hiveTagged is 1 when Hive's RCFile would store the group encoded, its
// payloads behind a tag byte each, and 0 when it would store a plain group.
func (g GroupStat) hiveTagged() int64 {
	for _, tag := range g.hiveEncs {
		if tag != EncPlain {
			return 1
		}
	}
	return 0
}

// Enc returns column c's encoding tag (EncPlain when the group is plain).
func (g GroupStat) Enc(c int) byte {
	if g.Encs == nil {
		return EncPlain
	}
	return g.Encs[c]
}

func uvarintLen(v uint64) int64 {
	var tmp [binary.MaxVarintLen64]byte
	return int64(binary.PutUvarint(tmp[:], v))
}

// EncodedSize returns the on-disk byte size of the group.
func (g GroupStat) EncodedSize() int64 { return groupSize(g.Rows, g.ColLens, nil) }

// ChargedSize returns the byte size of the group in Hive's RCFile: the span
// its address covers (see ReadGroups).
func (g GroupStat) ChargedSize() int64 { return g.ProjectedSize(nil) }

// ProjectedSize returns the logical bytes a reader fetching only the flagged
// columns consumes in Hive's RCFile: the header and every length varint plus
// the kept payloads, all at their charged lengths. A nil projection keeps
// everything (== ChargedSize).
func (g GroupStat) ProjectedSize(project []bool) int64 {
	lens := g.ColLens
	if g.Charged != nil {
		lens = g.Charged
	}
	return groupSize(g.Rows, lens, project)
}

// groupSize is the size of a group of rows with the given column payload
// lengths, only the flagged columns' payloads counted (nil counts all).
func groupSize(rows int, lens []int64, project []bool) int64 {
	n := 1 + uvarintLen(uint64(rows)) + uvarintLen(uint64(len(lens)))
	for c, l := range lens {
		n += uvarintLen(uint64(l))
		if project == nil || (c < len(project) && project[c]) {
			n += l
		}
	}
	return n
}

// ColStatsPath returns the side-file path holding the per-group column
// statistics of the RCFile at dataPath: "<dir>/_colstats/<base>".
func ColStatsPath(dataPath string) string {
	i := strings.LastIndexByte(dataPath, '/')
	return dataPath[:i+1] + "_colstats/" + dataPath[i+1:]
}

// The column statistics side file, n columns wide:
//
//	byte    colStatsMagic, byte colStatsVersion
//	uvarint n, then n kind bytes
//	per group:
//	  uvarint rows, n × uvarint column payload length; a packed column's
//	          is twice the payload length Hive's RCFile would store for it
//	          (tag byte aside), plus one if it would store it run-length
//	          coded rather than plain
//	  byte    flags (statZone | statEncs | statUnzoned; other bits zero)
//	  statEncs:    ⌈n/4⌉ bytes, the encoding tags, two bits a column, 3
//	               for a packed column (EncPacked for bigint and timestamp,
//	               EncPackedDecimal for double)
//	  statUnzoned: ⌈n/8⌉ bytes, a bit for each column without a zone
//	  statZone:    every zoned column's bounds in its kind:
//	    bigint, timestamp  svarint min − the column's previous min,
//	                       uvarint max − min
//	    double             byte e, svarint m(min), uvarint m(max) − m(min):
//	                       both bounds are m/10^e, e the smallest that makes
//	                       both bit-identical; or byte rawDouble and the two
//	                       bounds' 8-byte LE bits when no e up to
//	                       MaxDecimalExp does
//	    string             min as a prefix of the column's previous min
//	                       and a suffix, then max as a prefix of min and a
//	                       suffix: uvarint prefix length, uvarint suffix
//	                       length, suffix bytes
//	  then, for each packed column whose zone does not give its payload
//	  length on disk, that length as a uvarint. The zone of a bigint or
//	  timestamp column with both bounds within ±2^53 gives it
//	  (packedLenOfZone). A group's charged lengths are Hive's payloads
//	  (an unpacked column's length on disk, tag byte aside) plus, when any
//	  column is not plain in Hive's RCFile, a tag byte each.
//
// Packed fields fill each byte from its low bits, and bits past the last
// column are zero. A column's previous min is its min in the last group
// that zoned it (zero, or "", before the first); differences are taken mod
// 2^64, and every prefix is the longest the two strings share. The stream
// is canonical: the reader refuses any other spelling of what it decodes,
// so decoding and writing again gives back the same bytes.
const (
	colStatsMagic   = 0x00
	colStatsVersion = 4
)

// Group flags.
const (
	statZone byte = 1 << iota
	statEncs
	statUnzoned
)

// statPackedTag is a packed column's two-bit tag.
const statPackedTag = 3

// rawDouble tags a double zone stored as its bounds' bits.
const rawDouble = 0xff

// WriteColStats persists the per-group statistics of the RCFile at dataPath,
// whose columns schema describes.
func WriteColStats(fs *dfs.FS, dataPath string, schema *Schema, stats []GroupStat) error {
	buf, err := appendColStats(nil, kindsOf(schema), stats)
	if err != nil {
		return fmt.Errorf("storage: column stats for %s: %w", dataPath, err)
	}
	return fs.WriteFile(ColStatsPath(dataPath), buf)
}

// appendColStats appends the statistics stream of groups over columns of
// the given kinds.
func appendColStats(dst []byte, kinds []Kind, stats []GroupStat) ([]byte, error) {
	n := len(kinds)
	dst = append(dst, colStatsMagic, colStatsVersion)
	dst = binary.AppendUvarint(dst, uint64(n))
	prev := make([]Value, n)
	for c, k := range kinds {
		dst = append(dst, byte(k))
		prev[c] = ZeroValue(k)
	}
	for gi, g := range stats {
		if len(g.ColLens) != n {
			return nil, fmt.Errorf("group %d has %d columns, the file %d", gi, len(g.ColLens), n)
		}
		if g.zones != nil && !slices.Equal(g.zones.kinds, kinds) {
			return nil, fmt.Errorf("group %d has zones for columns %v, the file %v", gi, g.zones.kinds, kinds)
		}
		var flags byte
		if g.HasZone() && n > 0 {
			flags |= statZone
			for c := range kinds {
				if _, _, ok := g.Zone(c); !ok {
					flags |= statUnzoned
				}
			}
		}
		packed := false
		if len(g.Encs) == n && n > 0 {
			flags |= statEncs
			for c, tag := range g.Encs {
				switch {
				case packedTag(tag):
					if g.Charged == nil || tag != packedEnc(kinds[c]) || (g.hiveEncs[c] != EncPlain && g.hiveEncs[c] != EncRLE) {
						return nil, fmt.Errorf("group %d column %d: %s column of kind %v", gi, c, EncodingName(tag), kinds[c])
					}
					packed = true
				case tag > EncRLE:
					return nil, fmt.Errorf("group %d column %d: encoding tag %d", gi, c, tag)
				}
			}
		}
		if g.Charged != nil && !packed {
			return nil, fmt.Errorf("group %d has charged lengths and no packed column", gi)
		}
		dst = binary.AppendUvarint(dst, uint64(g.Rows))
		tagged := g.hiveTagged()
		for c, l := range g.ColLens {
			if packed && packedTag(g.Encs[c]) {
				rle := int64(0)
				if g.hiveEncs[c] == EncRLE {
					rle = 1
				}
				l = (g.Charged[c]-tagged)<<1 | rle
			}
			dst = binary.AppendUvarint(dst, uint64(l))
		}
		dst = append(dst, flags)
		if flags&statEncs != 0 {
			dst = appendPacked(dst, n, 2, func(c int) byte { return min(g.Encs[c], statPackedTag) })
		}
		if flags&statUnzoned != 0 {
			dst = appendPacked(dst, n, 1, func(c int) byte {
				if _, _, ok := g.Zone(c); ok {
					return 0
				}
				return 1
			})
		}
		if flags&statZone != 0 {
			for c := range kinds {
				if lo, hi, ok := g.Zone(c); ok {
					dst = appendZone(dst, lo, hi, &prev[c])
				}
			}
		}
		if !packed {
			continue
		}
		for c, tag := range g.Encs {
			if !packedTag(tag) {
				continue
			}
			lo, hi, ok := g.Zone(c)
			l, given := packedLenOfZone(kinds[c], g.Rows, lo, hi, ok)
			switch {
			case !given:
				dst = binary.AppendUvarint(dst, uint64(g.ColLens[c]))
			case l != g.ColLens[c]:
				return nil, fmt.Errorf("group %d column %d: %d bytes packed, its zone says %d", gi, c, g.ColLens[c], l)
			}
		}
	}
	return dst, nil
}

// packedLenOfZone returns the payload length of a packed bigint or
// timestamp column of rows cells whose zone is [lo, hi] (ok), tag byte
// included, and whether the zone gives it: it does when the bounds lie
// within ±2^53, where the zone map's order (through float64) is exact, so
// they are the column's least and greatest cells.
func packedLenOfZone(kind Kind, rows int, lo, hi Value, ok bool) (int64, bool) {
	const exact = 1 << 53
	if !ok || packedEnc(kind) != EncPacked || lo.I < -exact || hi.I > exact {
		return 0, false
	}
	return 1 + int64(PackedSize(rows, lo.I, hi.I)), true
}

// appendPacked appends n fields of the given bit width (1 or 2), each byte
// filled from its low bits.
func appendPacked(dst []byte, n, width int, field func(c int) byte) []byte {
	per := 8 / width
	for c := 0; c < n; c += per {
		var b byte
		for i := 0; i < per && c+i < n; i++ {
			b |= field(c+i) << (i * width)
		}
		dst = append(dst, b)
	}
	return dst
}

// appendZone appends one zoned column's bounds and advances its previous
// min.
func appendZone(dst []byte, lo, hi Value, prev *Value) []byte {
	switch lo.Kind {
	case KindFloat64:
		e := sharedDecimalExp(lo.F, hi.F)
		if e < 0 {
			dst = append(dst, rawDouble)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(lo.F))
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(hi.F))
		}
		mlo, _ := Decimal(lo.F, e)
		mhi, _ := Decimal(hi.F, e)
		dst = binary.AppendVarint(append(dst, byte(e)), mlo)
		return binary.AppendUvarint(dst, uint64(mhi)-uint64(mlo))
	case KindString:
		dst = appendShared(dst, prev.S, lo.S)
		*prev = lo
		return appendShared(dst, lo.S, hi.S)
	default:
		dst = binary.AppendVarint(dst, lo.I-prev.I)
		*prev = lo
		return binary.AppendUvarint(dst, uint64(hi.I)-uint64(lo.I))
	}
}

// sharedDecimalExp returns the smallest e at which Decimal accepts both a
// and b, or -1 if none up to MaxDecimalExp does.
func sharedDecimalExp(a, b float64) int {
	for e := 0; ; e++ {
		if e = DecimalExp(a, e); e < 0 {
			return -1
		}
		if _, ok := Decimal(b, e); ok {
			return e
		}
	}
}

// appendShared appends s as the longest prefix it shares with prev and the
// rest.
func appendShared(dst []byte, prev, s string) []byte {
	p := 0
	for p < len(prev) && p < len(s) && prev[p] == s[p] {
		p++
	}
	dst = binary.AppendUvarint(dst, uint64(p))
	dst = binary.AppendUvarint(dst, uint64(len(s)-p))
	return append(dst, s[p:]...)
}

var (
	errColStatsVersion = errors.New("unknown column stats version")
	errColStatsCorrupt = errors.New("corrupt column stats")
)

// ReadColStats loads the per-group statistics of the RCFile at dataPath, in
// group order, without checking them against the data file (ReadGroups
// does). It accepts only the stream WriteColStats emits.
func ReadColStats(fs *dfs.FS, dataPath string) ([]GroupStat, error) {
	data, err := fs.ReadFile(ColStatsPath(dataPath))
	if err != nil {
		return nil, err
	}
	_, stats, err := decodeColStats(data)
	if err != nil {
		return nil, fmt.Errorf("storage: %w for %s", err, dataPath)
	}
	return stats, nil
}

// statsReader consumes a column statistics stream. Every read checks the
// bytes left, and the first failure empties the stream and sticks.
type statsReader struct {
	data []byte
	bad  bool
}

func (r *statsReader) fail() {
	r.data, r.bad = nil, true
}

// uvarint reads a uvarint spelled in its fewest bytes.
func (r *statsReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 || int64(n) != uvarintLen(v) {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *statsReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *statsReader) next(n uint64) []byte {
	if n > uint64(len(r.data)) {
		r.fail()
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *statsReader) byte() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// packed reads n fields of the given bit width into dst, refusing set bits
// past the last field.
func (r *statsReader) packed(dst []byte, n, width int) []byte {
	per := 8 / width
	b := r.next(uint64((n + per - 1) / per))
	if b == nil {
		return dst
	}
	mask := byte(1)<<width - 1
	for c := 0; c < n; c++ {
		dst = append(dst, b[c/per]>>(c%per*width)&mask)
	}
	if rest := n % per; rest != 0 && b[len(b)-1]>>(rest*width) != 0 {
		r.fail()
	}
	return dst
}

// packedColumns reads what a group's packed columns add to its statistics.
// tags are the group's two-bit tags (statPackedTag for a packed column,
// which it replaces by the column's packed tag) and lens its column lengths
// as read: a packed column's is twice the length Hive's RCFile would store
// plus its run-length bit, which it replaces by the length on disk, given
// by the column's zone or read here. It returns the group's charged
// lengths and Hive's tags.
func (r *statsReader) packedColumns(kinds []Kind, g GroupStat, tags []byte, lens []int64) ([]int64, []byte) {
	charged, hive := make([]int64, len(kinds)), make([]byte, len(kinds))
	var tagged int64
	for c, tag := range tags {
		if tag == statPackedTag {
			if tags[c] = packedEnc(kinds[c]); tags[c] == EncPlain {
				r.fail()
			}
			charged[c], tag = lens[c]>>1, EncPlain
			if lens[c]&1 != 0 {
				tag = EncRLE
			}
			lo, hi, ok := g.Zone(c)
			var given bool
			if lens[c], given = packedLenOfZone(kinds[c], g.Rows, lo, hi, ok); !given {
				if lens[c] = int64(r.uvarint()); lens[c] < 0 {
					r.fail()
				}
			}
		} else if charged[c] = lens[c] - 1; charged[c] < 0 {
			r.fail()
		}
		if hive[c] = tag; tag != EncPlain {
			tagged = 1
		}
	}
	for c := range charged {
		charged[c] += tagged
	}
	return charged, hive
}

// shared reads a string written by appendShared against prev.
func (r *statsReader) shared(prev string) string {
	p := r.uvarint()
	suffix := r.next(r.uvarint())
	if r.bad || p > uint64(len(prev)) {
		r.fail()
		return ""
	}
	if len(suffix) == 0 {
		return prev[:p]
	}
	if p < uint64(len(prev)) && prev[p] == suffix[0] {
		r.fail() // the prefix is not the longest shared one
		return ""
	}
	return prev[:p] + string(suffix)
}

// zone reads one zoned column's bounds in kind and advances its previous
// min.
func (r *statsReader) zone(kind Kind, prev *Value) (min, max Value) {
	switch kind {
	case KindFloat64:
		var lo, hi float64
		e := r.byte()
		if e == rawDouble {
			if b := r.next(16); b != nil {
				lo = math.Float64frombits(binary.LittleEndian.Uint64(b))
				hi = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			}
			if sharedDecimalExp(lo, hi) >= 0 {
				r.fail()
			}
		} else {
			if e > MaxDecimalExp {
				r.fail()
				break
			}
			mlo := r.varint()
			mhi := int64(uint64(mlo) + r.uvarint())
			lo, hi = float64(mlo)/pow10[e], float64(mhi)/pow10[e]
			glo, _ := Decimal(lo, int(e))
			ghi, _ := Decimal(hi, int(e))
			if sharedDecimalExp(lo, hi) != int(e) || glo != mlo || ghi != mhi {
				r.fail()
			}
		}
		min, max = Float64(lo), Float64(hi)
	case KindString:
		min = Str(r.shared(prev.S))
		max = Str(r.shared(min.S))
	default:
		lo := prev.I + r.varint()
		hi := int64(uint64(lo) + r.uvarint())
		min, max = Value{Kind: kind, I: lo}, Value{Kind: kind, I: hi}
	}
	if kind != KindFloat64 {
		*prev = min
	}
	return min, max
}

// decodeColStats decodes a column statistics stream into its column kinds
// and groups. The groups' ColLens and Encs slice two arrays, and their zone
// maps are rows of one zoneMaps, shared by the file's groups.
func decodeColStats(data []byte) ([]Kind, []GroupStat, error) {
	if len(data) < 2 || data[0] != colStatsMagic || data[1] != colStatsVersion {
		return nil, nil, errColStatsVersion
	}
	r := statsReader{data: data[2:]}
	// Every column costs a kind byte, so the column count is bounded by the
	// bytes left before anything is sized by it.
	kindBytes := r.next(r.uvarint())
	if r.bad {
		return nil, nil, errColStatsCorrupt
	}
	n := len(kindBytes)
	kinds := make([]Kind, n)
	prev := make([]Value, n)
	for c, b := range kindBytes {
		if Kind(b) > KindTime {
			return nil, nil, errColStatsCorrupt
		}
		kinds[c] = Kind(b)
		prev[c] = ZeroValue(kinds[c])
	}
	var (
		stats       []GroupStat
		flags, encs []byte
		lens        []int64
		unzoned     []byte
		zones       = newZoneMaps(kinds)
	)
	for len(r.data) > 0 {
		rows := r.uvarint()
		// Every column length costs a byte at least.
		if rows > maxGroupRows || uint64(len(r.data)) < uint64(n) {
			return nil, nil, errColStatsCorrupt
		}
		at := len(lens)
		for c := 0; c < n; c++ {
			l := r.uvarint()
			if l > math.MaxInt64 {
				r.fail()
			}
			lens = append(lens, int64(l))
		}
		f := r.byte()
		if f&^(statZone|statEncs|statUnzoned) != 0 || (n == 0 && f != 0) || (f&statUnzoned != 0 && f&statZone == 0) {
			r.fail()
		}
		var tags []byte
		if f&statEncs != 0 {
			if encs = r.packed(encs, n, 2); !r.bad {
				tags = encs[len(encs)-n:]
			}
		}
		if f&statUnzoned != 0 {
			unzoned = r.packed(unzoned[:0], n, 1)
			if !slices.Contains(unzoned, 1) {
				r.fail()
			}
		}
		g := GroupStat{Rows: int(rows)}
		if f&statZone != 0 && !r.bad {
			g.zones, g.zone = zones, zones.add()
			for c, kind := range kinds {
				if f&statUnzoned == 0 || unzoned[c] == 0 {
					lo, hi := r.zone(kind, &prev[c])
					zones.set(g.zone, c, lo, hi)
				}
			}
		}
		if !r.bad && slices.Contains(tags, statPackedTag) {
			g.Charged, g.hiveEncs = r.packedColumns(kinds, g, tags, lens[at:])
		}
		if r.bad {
			return nil, nil, errColStatsCorrupt
		}
		stats = append(stats, g)
		flags = append(flags, f)
	}
	ei := 0
	for g := range stats {
		stats[g].ColLens = lens[g*n : (g+1)*n : (g+1)*n]
		if flags[g]&statEncs != 0 {
			stats[g].Encs = encs[ei : ei+n : ei+n]
			ei += n
		}
	}
	return kinds, stats, nil
}
