// Package storage defines the record model and the two Hive file formats the
// paper evaluates: TextFile (delimited lines; the base-table format of
// DGFIndex) and RCFile (a row-group columnar format; the base-table format of
// the Compact Index baselines).
package storage

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the column types used by the paper's schemas.
type Kind uint8

// Supported column kinds.
const (
	KindInt64 Kind = iota
	KindFloat64
	KindString
	KindTime // calendar timestamps, second precision, stored as Unix seconds
)

// String returns the HiveQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "bigint"
	case KindFloat64:
		return "double"
	case KindString:
		return "string"
	case KindTime:
		return "timestamp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a HiveQL type name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "bigint", "int", "long":
		return KindInt64, nil
	case "double", "float":
		return KindFloat64, nil
	case "string", "varchar":
		return KindString, nil
	case "timestamp", "date":
		return KindTime, nil
	default:
		return 0, fmt.Errorf("storage: unknown type %q", s)
	}
}

// Value is a dynamically typed cell. It is a small value type; Rows copy
// cheaply and never alias.
type Value struct {
	Kind Kind
	I    int64 // KindInt64 and KindTime (Unix seconds)
	F    float64
	S    string
}

// Convenience constructors.
func Int64(v int64) Value      { return Value{Kind: KindInt64, I: v} }
func Float64(v float64) Value  { return Value{Kind: KindFloat64, F: v} }
func Str(v string) Value       { return Value{Kind: KindString, S: v} }
func Time(t time.Time) Value   { return Value{Kind: KindTime, I: t.Unix()} }
func TimeUnix(sec int64) Value { return Value{Kind: KindTime, I: sec} }

// ZeroValue returns the kind's zero value (the placeholder a projected read
// leaves in the cells it skipped).
func ZeroValue(kind Kind) Value {
	switch kind {
	case KindFloat64:
		return Float64(0)
	case KindString:
		return Str("")
	case KindTime:
		return TimeUnix(0)
	default:
		return Int64(0)
	}
}

// AsFloat converts numeric values to float64 (aggregation input).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt64, KindTime:
		return float64(v.I)
	case KindFloat64:
		return v.F
	default:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	}
}

// AsInt converts the value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt64, KindTime:
		return v.I
	case KindFloat64:
		return int64(v.F)
	default:
		i, _ := strconv.ParseInt(v.S, 10, 64)
		return i
	}
}

// dateLayout is how KindTime values render in text files ("2012-12-30" style
// values in the paper render with a time part when non-midnight).
const (
	dateLayout     = "2006-01-02"
	dateTimeLayout = "2006-01-02 15:04:05"
)

// String renders the value the way the text format stores it.
func (v Value) String() string {
	switch v.Kind {
	case KindInt64:
		return strconv.FormatInt(v.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindTime:
		var buf [len(dateTimeLayout)]byte
		return string(appendTimeText(buf[:0], v.I))
	default:
		return v.S
	}
}

// AppendText appends the textual rendering of v to dst, avoiding
// allocations on hot paths.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Kind {
	case KindInt64:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat64:
		if v.F > 0 && v.F < maxCentsText {
			if c := int64(v.F*100 + 0.5); float64(c)/100 == v.F {
				return appendCents(dst, c)
			}
		}
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindTime:
		return appendTimeText(dst, v.I)
	default:
		return append(dst, v.S...)
	}
}

// maxCentsText bounds appendCents: from 1e6 up, 'g' with the shortest
// precision switches to exponent form ("1.1666145821e+08").
const maxCentsText = 1e6

// appendCents renders c/100 the way strconv.AppendFloat(dst, f, 'g', -1, 64)
// renders the double f nearest to it, for 0 < c/100 < maxCentsText: that
// decimal reads back as f, and no decimal with fewer digits lies as near, so
// it is the shortest rendering; trailing zeros of the fraction are dropped.
// Meter readings are whole cents, and this skips the shortest-digit search.
func appendCents(dst []byte, c int64) []byte {
	dst = strconv.AppendInt(dst, c/100, 10)
	switch frac := c % 100; {
	case frac == 0:
		return dst
	case frac%10 == 0:
		return append(dst, '.', byte('0'+frac/10))
	default:
		return append(dst, '.', byte('0'+frac/10), byte('0'+frac%10))
	}
}

const secondsPerDay = 24 * 3600

// Unix seconds of 0000-01-01 00:00:00 and 9999-12-31 23:59:59 UTC: the years
// the fixed-width layouts can render.
const (
	minLayoutUnix = -62167219200
	maxLayoutUnix = 253402300799
)

// appendTimeText renders Unix seconds the way the text format stores
// timestamps: dateLayout at midnight UTC, dateTimeLayout otherwise. Years
// 0-9999 go through a fixed-layout digit writer; anything else falls back to
// the time package, whose rendering the writer reproduces byte for byte.
func appendTimeText(dst []byte, sec int64) []byte {
	if sec < minLayoutUnix || sec > maxLayoutUnix {
		t := time.Unix(sec, 0).UTC()
		if t.Hour() == 0 && t.Minute() == 0 && t.Second() == 0 {
			return t.AppendFormat(dst, dateLayout)
		}
		return t.AppendFormat(dst, dateTimeLayout)
	}
	days := sec / secondsPerDay
	rem := sec % secondsPerDay
	if rem < 0 {
		days--
		rem += secondsPerDay
	}
	year, month, day := civilFromDays(days)
	dst = append(dst,
		byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '-',
		byte('0'+month/10), byte('0'+month%10), '-',
		byte('0'+day/10), byte('0'+day%10))
	if rem == 0 {
		return dst
	}
	hour, min, s := rem/3600, rem/60%60, rem%60
	return append(dst, ' ',
		byte('0'+hour/10), byte('0'+hour%10), ':',
		byte('0'+min/10), byte('0'+min%10), ':',
		byte('0'+s/10), byte('0'+s%10))
}

// civilFromDays converts days since 1970-01-01 to a proleptic Gregorian date
// (Hinnant's era arithmetic: a 400-year era is 146097 days, years counted
// from March so the leap day falls last).
func civilFromDays(z int64) (year, month, day int64) {
	z += 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // [0, 365]
	mp := (5*doy + 2) / 153                                // [0, 11]
	day = doy - (153*mp+2)/5 + 1
	month = mp + 3
	if month > 12 {
		month -= 12
	}
	year = yoe + era*400
	if month <= 2 {
		year++
	}
	return year, month, day
}

// ParseValue parses the textual rendering of a value of the given kind.
func ParseValue(kind Kind, s string) (Value, error) { return parseCell(kind, s) }

// parseCell is ParseValue over a field held as a string or as bytes: the
// layouts the writers emit — plain integers, decimals of up to 15 digits,
// the two timestamp layouts — parse where they lie through exact fast paths
// (parseIntStr, parseDouble, parseTimeStr), and only a string cell, or a
// field the fast paths turn down, converts the bytes.
func parseCell[T string | []byte](kind Kind, field T) (Value, error) {
	switch kind {
	case KindInt64:
		if n, ok := parseIntStr(field); ok {
			return Int64(n), nil
		}
		i, err := strconv.ParseInt(string(field), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("storage: parse bigint %q: %w", field, err)
		}
		return Int64(i), nil
	case KindFloat64:
		f, err := parseDouble(field)
		if err != nil {
			return Value{}, err
		}
		return Float64(f), nil
	case KindTime:
		if sec, ok := parseTimeStr(field); ok {
			return TimeUnix(sec), nil
		}
		return ParseTime(string(field))
	default:
		return Str(string(field)), nil
	}
}

// ParseTime accepts "2006-01-02", "2006-01-02 15:04:05" or raw Unix seconds.
func ParseTime(s string) (Value, error) {
	if t, err := time.ParseInLocation(dateLayout, s, time.UTC); err == nil {
		return Time(t), nil
	}
	if t, err := time.ParseInLocation(dateTimeLayout, s, time.UTC); err == nil {
		return Time(t), nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return TimeUnix(sec), nil
	}
	return Value{}, fmt.Errorf("storage: parse timestamp %q", s)
}

// parseTimeStr parses the two layouts the writer emits ("2006-01-02" and
// "2006-01-02 15:04:05") where they lie, without time.Parse, whose failed
// layout attempts allocate an error per call, or time.Date: the seconds
// are days-from-civil arithmetic. ok is false for anything that is not one
// of the layouts or not a calendar date and time (month 13, Feb 30, hour
// 24, second 60) — exactly the strings of those lengths that
// time.ParseInLocation refuses; callers fall back to ParseTime, which keeps
// its semantics for arbitrary input.
func parseTimeStr[T string | []byte](s T) (int64, bool) {
	if len(s) != len(dateLayout) && len(s) != len(dateTimeLayout) {
		return 0, false
	}
	digits := func(from, to int) (int64, bool) {
		n := int64(0)
		for i := from; i < to; i++ {
			d := s[i]
			if d < '0' || d > '9' {
				return 0, false
			}
			n = n*10 + int64(d-'0')
		}
		return n, true
	}
	if s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	year, okY := digits(0, 4)
	month, okM := digits(5, 7)
	day, okD := digits(8, 10)
	if !okY || !okM || !okD || month < 1 || month > 12 || day < 1 || day > daysIn(year, month) {
		return 0, false
	}
	var hour, min, sec int64
	if len(s) == len(dateTimeLayout) {
		if s[10] != ' ' || s[13] != ':' || s[16] != ':' {
			return 0, false
		}
		var okH, okMin, okS bool
		hour, okH = digits(11, 13)
		min, okMin = digits(14, 16)
		sec, okS = digits(17, 19)
		if !okH || !okMin || !okS || hour > 23 || min > 59 || sec > 59 {
			return 0, false
		}
	}
	return daysFromCivil(year, month, day)*secondsPerDay + hour*3600 + min*60 + sec, true
}

// daysIn is the number of days of a month of the proleptic Gregorian
// calendar.
func daysIn(year, month int64) int64 {
	if month == 2 {
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	return 30 + (month+month/8)%2
}

// daysFromCivil is civilFromDays' inverse: the days since 1970-01-01 of a
// proleptic Gregorian date.
func daysFromCivil(year, month, day int64) int64 {
	if month <= 2 {
		year--
	}
	era := year / 400
	if year < 0 {
		era = (year - 399) / 400
	}
	yoe := year - era*400                     // [0, 399]
	doy := (153*((month+9)%12)+2)/5 + day - 1 // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy    // [0, 146096]
	return era*146097 + doe - 719468
}

// Compare orders two values of the same kind: -1, 0 or +1. Comparing values
// of different kinds compares their float renderings, which is how Hive's
// lenient comparisons behave for the numeric predicates in the paper.
func Compare(a, b Value) int {
	if a.Kind == KindString && b.Kind == KindString {
		return strings.Compare(a.S, b.S)
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Row is one record: a slice of cells aligned with a Schema.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Column describes one field of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Cols  []Column
	index map[string]int
}

// NewSchema builds a schema and its name index. Column names are
// case-insensitive, like HiveQL identifiers.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, index: make(map[string]int, len(cols))}
	for i, c := range cols {
		s.index[strings.ToLower(c.Name)] = i
	}
	return s
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.index[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Col returns the column at position i.
func (s *Schema) Col(i int) Column { return s.Cols[i] }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Project returns a new schema containing only the named columns, in order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i := s.ColIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("storage: unknown column %q", n)
		}
		cols = append(cols, s.Cols[i])
	}
	return NewSchema(cols...), nil
}

// String renders the schema like a DDL column list.
func (s *Schema) String() string {
	var b strings.Builder
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	return b.String()
}
