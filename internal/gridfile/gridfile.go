// Package gridfile implements the grid-file geometry underlying DGFIndex
// (Nievergelt, Hinterberger, Sevcik: "The Grid File", TODS 1984, as used in
// Section 4 of the DGFIndex paper).
//
// A splitting policy divides each index dimension into equal-width,
// left-closed right-open intervals starting at a minimum coordinate; the
// cross product of the per-dimension intervals tiles the data space into
// grid file units (GFUs). Every record standardises to the GFU containing
// it; a query region decomposes into the GFUs it fully contains (the inner
// region, answerable from pre-computed headers) and the GFUs it merely
// overlaps (the boundary region, which must be scanned).
package gridfile

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Dimension is one axis of the grid with its splitting policy: the minimum
// coordinate and the interval width. Int64 and Time dimensions use exact
// integer arithmetic; Float64 dimensions use an epsilon-guarded floor.
type Dimension struct {
	Name string
	Kind storage.Kind
	// Min is the origin coordinate of cell 0.
	Min storage.Value
	// IntervalI is the cell width for KindInt64 (units of the value) and
	// KindTime (seconds).
	IntervalI int64
	// IntervalF is the cell width for KindFloat64.
	IntervalF float64
}

// floatEps absorbs float rounding so that a value lying exactly on a cell
// boundary standardises into the cell it opens (left-closed intervals).
const floatEps = 1e-9

// CellOf returns the index of the cell containing v. This is the paper's
// "standard" method: find the previous splitting-policy coordinate.
func (d Dimension) CellOf(v storage.Value) int64 {
	switch d.Kind {
	case storage.KindFloat64:
		return int64(floorDiv(v.AsFloat()-d.Min.AsFloat(), d.IntervalF))
	default: // KindInt64, KindTime
		return floorDivInt(v.AsInt()-d.Min.AsInt(), d.IntervalI)
	}
}

// AppendCells appends CellOf of the cells at positions rows of column v, a
// whole column at a time: an integer dimension divides the vector's Ints, a
// float one its Floats, and any other pairing of kinds goes through CellOf.
func (d Dimension) AppendCells(dst []int64, v *storage.ColumnVector, rows []int) []int64 {
	switch {
	case !v.Valid:
	case d.Kind != storage.KindFloat64 && (v.Kind == storage.KindInt64 || v.Kind == storage.KindTime):
		min := d.Min.AsInt()
		for _, r := range rows {
			dst = append(dst, floorDivInt(v.Ints[r]-min, d.IntervalI))
		}
		return dst
	case d.Kind == storage.KindFloat64 && v.Kind == storage.KindFloat64:
		min := d.Min.AsFloat()
		for _, r := range rows {
			dst = append(dst, int64(floorDiv(v.Floats[r]-min, d.IntervalF)))
		}
		return dst
	}
	for _, r := range rows {
		dst = append(dst, d.CellOf(v.Value(r)))
	}
	return dst
}

func floorDiv(num, den float64) float64 {
	q := num/den + floatEps
	f := float64(int64(q))
	if q < 0 && f != q {
		f--
	}
	return f
}

func floorDivInt(num, den int64) int64 {
	q := num / den
	if num%den != 0 && (num < 0) != (den < 0) {
		q--
	}
	return q
}

// CellStart returns the coordinate at which cell idx begins (the value that
// contributes to the GFUKey).
func (d Dimension) CellStart(idx int64) storage.Value {
	switch d.Kind {
	case storage.KindFloat64:
		return storage.Float64(d.Min.AsFloat() + float64(idx)*d.IntervalF)
	case storage.KindTime:
		return storage.TimeUnix(d.Min.AsInt() + idx*d.IntervalI)
	default:
		return storage.Int64(d.Min.AsInt() + idx*d.IntervalI)
	}
}

// Validate checks the dimension's splitting policy.
func (d Dimension) Validate() error {
	switch d.Kind {
	case storage.KindFloat64:
		if d.IntervalF <= 0 {
			return fmt.Errorf("gridfile: dimension %s: interval must be positive", d.Name)
		}
	case storage.KindInt64, storage.KindTime:
		if d.IntervalI <= 0 {
			return fmt.Errorf("gridfile: dimension %s: interval must be positive", d.Name)
		}
	default:
		return fmt.Errorf("gridfile: dimension %s: kind %v cannot be gridded", d.Name, d.Kind)
	}
	return nil
}

// ParseDimension builds a dimension from an IDXPROPERTIES entry such as
// 'userId'='1_1000' (min 1, interval 1000), 'discount'='0_0.01', or
// 'ts'='2012-12-01_1d' (day-unit interval; h and m units also accepted,
// and a bare number of seconds).
func ParseDimension(name string, kind storage.Kind, spec string) (Dimension, error) {
	i := strings.LastIndexByte(spec, '_')
	if i <= 0 || i == len(spec)-1 {
		return Dimension{}, fmt.Errorf("gridfile: dimension %s: bad policy %q, want min_interval", name, spec)
	}
	minStr, intStr := spec[:i], spec[i+1:]
	d := Dimension{Name: name, Kind: kind}
	min, err := storage.ParseValue(kind, minStr)
	if err != nil {
		return Dimension{}, fmt.Errorf("gridfile: dimension %s: min: %w", name, err)
	}
	d.Min = min
	switch kind {
	case storage.KindFloat64:
		f, err := strconv.ParseFloat(intStr, 64)
		if err != nil {
			return Dimension{}, fmt.Errorf("gridfile: dimension %s: interval: %w", name, err)
		}
		d.IntervalF = f
	case storage.KindTime:
		sec, err := parseTimeInterval(intStr)
		if err != nil {
			return Dimension{}, fmt.Errorf("gridfile: dimension %s: %w", name, err)
		}
		d.IntervalI = sec
	case storage.KindInt64:
		n, err := strconv.ParseInt(intStr, 10, 64)
		if err != nil {
			return Dimension{}, fmt.Errorf("gridfile: dimension %s: interval: %w", name, err)
		}
		d.IntervalI = n
	default:
		return Dimension{}, fmt.Errorf("gridfile: dimension %s: kind %v cannot be gridded", name, kind)
	}
	if err := d.Validate(); err != nil {
		return Dimension{}, err
	}
	return d, nil
}

func parseTimeInterval(s string) (int64, error) {
	unit := int64(1)
	switch {
	case strings.HasSuffix(s, "d"):
		unit, s = 24*3600, s[:len(s)-1]
	case strings.HasSuffix(s, "h"):
		unit, s = 3600, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		unit, s = 60, s[:len(s)-1]
	case strings.HasSuffix(s, "s"):
		unit, s = 1, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time interval %q", s)
	}
	return n * unit, nil
}

// Spec renders the dimension back into IDXPROPERTIES syntax.
func (d Dimension) Spec() string {
	switch d.Kind {
	case storage.KindFloat64:
		return d.Min.String() + "_" + strconv.FormatFloat(d.IntervalF, 'g', -1, 64)
	case storage.KindTime:
		if d.IntervalI%(24*3600) == 0 {
			return d.Min.String() + "_" + strconv.FormatInt(d.IntervalI/(24*3600), 10) + "d"
		}
		return d.Min.String() + "_" + strconv.FormatInt(d.IntervalI, 10) + "s"
	default:
		return d.Min.String() + "_" + strconv.FormatInt(d.IntervalI, 10)
	}
}

// Policy is a full splitting policy: one Dimension per indexed column.
type Policy struct {
	Dims []Dimension
}

// Validate checks every dimension.
func (p *Policy) Validate() error {
	if len(p.Dims) == 0 {
		return fmt.Errorf("gridfile: policy has no dimensions")
	}
	seen := map[string]bool{}
	for _, d := range p.Dims {
		if err := d.Validate(); err != nil {
			return err
		}
		lower := strings.ToLower(d.Name)
		if seen[lower] {
			return fmt.Errorf("gridfile: duplicate dimension %s", d.Name)
		}
		seen[lower] = true
	}
	return nil
}

// DimIndex returns the position of the named dimension, or -1.
func (p *Policy) DimIndex(name string) int {
	for i, d := range p.Dims {
		if strings.EqualFold(d.Name, name) {
			return i
		}
	}
	return -1
}

// CellsOf standardises a record's dimension values into cell coordinates.
// values must align with p.Dims.
func (p *Policy) CellsOf(values []storage.Value) []int64 {
	cells := make([]int64, len(p.Dims))
	for i, d := range p.Dims {
		cells[i] = d.CellOf(values[i])
	}
	return cells
}

// KeySeparator joins the coordinates of a GFUKey ("7_13" in the paper).
const KeySeparator = "_"

// Key renders cell coordinates as a GFUKey: the underscore-joined cell-start
// coordinates, exactly as in the paper's Figure 5 ("7_13").
func (p *Policy) Key(cells []int64) string { return string(p.AppendKey(nil, cells)) }

// AppendKey appends the GFUKey of cells to buf.
func (p *Policy) AppendKey(buf []byte, cells []int64) []byte {
	for i, d := range p.Dims {
		if i > 0 {
			buf = append(buf, KeySeparator...)
		}
		buf = d.CellStart(cells[i]).AppendText(buf)
	}
	return buf
}

// Range is a per-dimension query constraint: Lo OP v OP Hi, where the OPs
// are > / >= and < / <= according to the open flags. A nil-bound side is
// expressed by Unbounded low/high values supplied by the caller (the planner
// substitutes stored data minima/maxima for missing dimensions, as the paper
// does for partially specified queries).
type Range struct {
	Lo, Hi         storage.Value
	LoOpen, HiOpen bool // true for strict inequalities (> and <)
	// LoUnbounded / HiUnbounded mark one-sided predicates (e.g. the
	// l_quantity < 24 conjunct of TPC-H Q6); the corresponding bound value
	// is ignored. The planner clamps unbounded sides to the indexed data's
	// observed extent.
	LoUnbounded, HiUnbounded bool
}

// Contains reports whether v satisfies the range.
func (r Range) Contains(v storage.Value) bool {
	if !r.LoUnbounded {
		cl := storage.Compare(v, r.Lo)
		if cl < 0 || (cl == 0 && r.LoOpen) {
			return false
		}
	}
	if !r.HiUnbounded {
		ch := storage.Compare(v, r.Hi)
		if ch > 0 || (ch == 0 && r.HiOpen) {
			return false
		}
	}
	return true
}

// Intersect combines two constraints on the same column into their
// conjunction.
func (r Range) Intersect(other Range) Range {
	out := r
	if !other.LoUnbounded {
		if out.LoUnbounded {
			out.Lo, out.LoOpen, out.LoUnbounded = other.Lo, other.LoOpen, false
		} else {
			c := storage.Compare(other.Lo, out.Lo)
			if c > 0 || (c == 0 && other.LoOpen) {
				out.Lo, out.LoOpen = other.Lo, other.LoOpen
			}
		}
	}
	if !other.HiUnbounded {
		if out.HiUnbounded {
			out.Hi, out.HiOpen, out.HiUnbounded = other.Hi, other.HiOpen, false
		} else {
			c := storage.Compare(other.Hi, out.Hi)
			if c < 0 || (c == 0 && other.HiOpen) {
				out.Hi, out.HiOpen = other.Hi, other.HiOpen
			}
		}
	}
	return out
}

// CellRange is an inclusive range of cell indices along one dimension.
type CellRange struct {
	Lo, Hi int64 // inclusive; empty when Lo > Hi
}

// Empty reports whether the range covers no cells.
func (c CellRange) Empty() bool { return c.Lo > c.Hi }

// Count returns the number of cells in the range.
func (c CellRange) Count() int64 {
	if c.Empty() {
		return 0
	}
	return c.Hi - c.Lo + 1
}

// Clamp intersects the range with [lo, hi].
func (c CellRange) Clamp(lo, hi int64) CellRange {
	if c.Lo < lo {
		c.Lo = lo
	}
	if c.Hi > hi {
		c.Hi = hi
	}
	return c
}

// Decomposition is the result of overlaying a query region on the grid: the
// cells that must be read (overlapping the query) and the subset that are
// inner (fully contained, answerable from pre-computed headers). Both are
// hyper-rectangles in cell space, per the geometry in the paper's Figure 7.
type Decomposition struct {
	policy *Policy
	// Read is the per-dimension inclusive cell range overlapping the query
	// (region R in the paper).
	Read []CellRange
	// Inner is the per-dimension inclusive cell range fully inside the
	// query (region I). The inner region exists only when every dimension
	// has a non-empty inner range.
	Inner []CellRange
}

// Decompose overlays the per-dimension ranges (aligned with p.Dims) onto the
// grid.
func (p *Policy) Decompose(ranges []Range) (Decomposition, error) {
	if len(ranges) != len(p.Dims) {
		return Decomposition{}, fmt.Errorf("gridfile: %d ranges for %d dimensions", len(ranges), len(p.Dims))
	}
	dec := Decomposition{
		policy: p,
		Read:   make([]CellRange, len(ranges)),
		Inner:  make([]CellRange, len(ranges)),
	}
	for i, r := range ranges {
		d := p.Dims[i]
		if !r.LoUnbounded && !r.HiUnbounded && storage.Compare(r.Lo, r.Hi) > 0 {
			return Decomposition{}, fmt.Errorf("gridfile: dimension %s: empty range [%v, %v]", d.Name, r.Lo, r.Hi)
		}
		// Discrete kinds admit exact closed-bound geometry: v <= h over
		// integers is v < h+1, which lets a query aligned with cell
		// boundaries classify its edge cells as inner instead of boundary.
		if d.Kind != storage.KindFloat64 && !r.HiUnbounded && !r.HiOpen {
			switch d.Kind {
			case storage.KindTime:
				r.Hi = storage.TimeUnix(r.Hi.AsInt() + 1)
			default:
				r.Hi = storage.Int64(r.Hi.AsInt() + 1)
			}
			r.HiOpen = true
		}
		// Unbounded sides take sentinel cell bounds; the planner clamps to
		// the indexed data's extent before enumerating (ClampRead).
		readLo := unboundedLoCell
		if !r.LoUnbounded {
			readLo = d.CellOf(r.Lo)
			if r.LoOpen && d.Kind != storage.KindFloat64 {
				// For discrete kinds, v > lo means v >= lo+1.
				readLo = d.CellOf(storage.Int64(r.Lo.AsInt() + 1))
				if d.Kind == storage.KindTime {
					readLo = d.CellOf(storage.TimeUnix(r.Lo.AsInt() + 1))
				}
			}
		}
		readHi := unboundedHiCell
		if !r.HiUnbounded {
			readHi = d.CellOf(r.Hi)
			if r.HiOpen && atCellStart(d, r.Hi) {
				// v < hi with hi exactly on a boundary: the cell opening at
				// hi contains no qualifying values.
				readHi--
			}
		}
		dec.Read[i] = CellRange{Lo: readLo, Hi: readHi}

		// Inner range: cells [s, e) with every value satisfying the range.
		innerLo := readLo
		if !r.LoUnbounded && !cellFullyAboveLo(d, innerLo, r) {
			innerLo++
		}
		innerHi := readHi
		if !r.HiUnbounded && !cellFullyBelowHi(d, innerHi, r) {
			innerHi--
		}
		dec.Inner[i] = CellRange{Lo: innerLo, Hi: innerHi}
	}
	return dec, nil
}

// Sentinel cell bounds for unbounded range sides, far outside any real data
// extent yet safe under the arithmetic in CellStart.
const (
	unboundedLoCell = int64(-1) << 40
	unboundedHiCell = int64(1) << 40
)

func atCellStart(d Dimension, v storage.Value) bool {
	c := d.CellOf(v)
	return storage.Compare(d.CellStart(c), v) == 0
}

// cellFullyAboveLo reports whether every value of cell c satisfies the low
// bound of r.
func cellFullyAboveLo(d Dimension, c int64, r Range) bool {
	s := d.CellStart(c)
	cmp := storage.Compare(s, r.Lo)
	if cmp > 0 {
		return true
	}
	if cmp < 0 {
		return false
	}
	// s == lo: cell values start exactly at lo.
	if !r.LoOpen {
		return true
	}
	// lo is excluded. For discrete kinds the cell still contains lo itself.
	return false
}

// cellFullyBelowHi reports whether every value of cell c satisfies the high
// bound of r. Cell values live in [start, nextStart).
func cellFullyBelowHi(d Dimension, c int64, r Range) bool {
	e := d.CellStart(c + 1)
	cmp := storage.Compare(e, r.Hi)
	if cmp < 0 {
		return true
	}
	if cmp > 0 {
		return false
	}
	// e == hi: cell values are all < hi, which satisfies both < and <=.
	return true
}

// HasInner reports whether the inner region is non-empty.
func (d Decomposition) HasInner() bool {
	for _, c := range d.Inner {
		if c.Empty() {
			return false
		}
	}
	return len(d.Inner) > 0
}

// IsInner reports whether the cell at coords lies in the inner region.
func (d Decomposition) IsInner(coords []int64) bool {
	if !d.HasInner() {
		return false
	}
	for i, c := range coords {
		if c < d.Inner[i].Lo || c > d.Inner[i].Hi {
			return false
		}
	}
	return true
}

// CountRead returns the number of cells in the read region.
func (d Decomposition) CountRead() int64 { return countCells(d.Read) }

// CountInner returns the number of cells in the inner region.
func (d Decomposition) CountInner() int64 {
	if !d.HasInner() {
		return 0
	}
	return countCells(d.Inner)
}

func countCells(ranges []CellRange) int64 {
	if len(ranges) == 0 {
		return 0
	}
	n := int64(1)
	for _, c := range ranges {
		cnt := c.Count()
		if cnt == 0 {
			return 0
		}
		n *= cnt
	}
	return n
}

// EachReadCell enumerates every cell of the read region in odometer order,
// invoking fn with coordinates that fn must not retain.
func (d Decomposition) EachReadCell(fn func(coords []int64)) {
	eachCell(d.Read, fn)
}

// EachInnerCell enumerates the inner region.
func (d Decomposition) EachInnerCell(fn func(coords []int64)) {
	if !d.HasInner() {
		return
	}
	eachCell(d.Inner, fn)
}

// EachBoundaryCell enumerates read-region cells outside the inner region
// (the boundary region R−I of the paper).
func (d Decomposition) EachBoundaryCell(fn func(coords []int64)) {
	eachCell(d.Read, func(coords []int64) {
		if !d.IsInner(coords) {
			fn(coords)
		}
	})
}

func eachCell(ranges []CellRange, fn func(coords []int64)) {
	for _, c := range ranges {
		if c.Empty() {
			return
		}
	}
	if len(ranges) == 0 {
		return
	}
	coords := make([]int64, len(ranges))
	for i, c := range ranges {
		coords[i] = c.Lo
	}
	for {
		fn(coords)
		i := len(ranges) - 1
		for i >= 0 {
			coords[i]++
			if coords[i] <= ranges[i].Hi {
				break
			}
			coords[i] = ranges[i].Lo
			i--
		}
		if i < 0 {
			return
		}
	}
}

// ClampRead intersects the read (and inner) regions with per-dimension data
// bounds, so that queries over sparse grids do not enumerate cells no record
// can occupy. The planner passes the per-dimension min/max standardised
// values that DGFIndex records at construction time.
func (d *Decomposition) ClampRead(lo, hi []int64) {
	for i := range d.Read {
		d.Read[i] = d.Read[i].Clamp(lo[i], hi[i])
		d.Inner[i] = d.Inner[i].Clamp(lo[i], hi[i])
	}
}

// TimeUnit is a convenience constructor for day-granularity time dimensions.
func TimeUnit(days int64) int64 { return days * 24 * 3600 }

// DayInterval builds a Time dimension starting at min with an interval of n
// days.
func DayInterval(name string, min time.Time, n int64) Dimension {
	return Dimension{
		Name:      name,
		Kind:      storage.KindTime,
		Min:       storage.Time(min),
		IntervalI: TimeUnit(n),
	}
}
