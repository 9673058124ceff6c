package dgf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Key-value store layout. GFU pairs live under the "g/" prefix: the key is
// the paper's readable GFUKey ("g/10_10001_2012-12-03"), the value the binary
// GFUValue described at appendHeader and appendLoc. Metadata (splitting
// policy, pre-compute list, per-dimension data bounds) lives under "meta/" as
// text. The paper stores the same information in HBase: the GFU pairs plus
// "the minimum and maximum standardized values in every index dimension"
// (Section 4.2).
const (
	gfuPrefix     = "g/"
	metaPolicy    = "meta/policy"
	metaPrecomp   = "meta/precompute"
	metaMinPrefix = "meta/min/"
	metaMaxPrefix = "meta/max/"
	metaDataDir   = "meta/datadir"
	metaGen       = "meta/generation"
	metaFormat    = "meta/format"
	metaGroupRows = "meta/grouprows"
)

// SliceLoc locates one Slice: a contiguous run of records of a single GFU
// inside a reorganised data file (the location part of a GFUValue).
type SliceLoc struct {
	File  string
	Start int64 // inclusive byte offset
	End   int64 // exclusive byte offset
}

// Len returns the slice length in bytes.
func (s SliceLoc) Len() int64 { return s.End - s.Start }

// GFUValue is the value part of one GFU pair: the pre-computed header plus
// the locations of the GFU's Slices. A freshly built index has exactly one
// Slice per GFU; incremental loads append more (the paper extends the time
// dimension for new data, so existing pairs normally stay untouched, but
// late-arriving records for an existing cell merge here).
type GFUValue struct {
	Header Header
	Slices []SliceLoc
}

// errBadGFUValue is what every decoder below reports; callers name the key.
var errBadGFUValue = errors.New("malformed GFUValue")

// appendHeader appends the header half of a GFUValue: per accumulator, in
// pre-compute order, a uvarint N and — when N > 0 and the function is not
// count — the eight little-endian bytes of the float64 value. A count stores N
// alone (Fold and Merge keep its Value equal to N); an empty accumulator is
// the single byte 0.
func appendHeader(b []byte, h Header) []byte {
	for _, a := range h {
		b = binary.AppendUvarint(b, uint64(a.N))
		if a.N > 0 && a.Func != AggCount {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Value))
		}
	}
	return b
}

// appendLoc appends one Slice location: uvarint generation, reduce task,
// start and length. The first two are the numbers partFile names the data file
// from, so a location names its file without storing a path. The location
// half of a GFUValue is a uvarint slice count followed by that many locations.
func appendLoc(b []byte, gen, task int, start, end int64) []byte {
	b = binary.AppendUvarint(b, uint64(gen))
	b = binary.AppendUvarint(b, uint64(task))
	b = binary.AppendUvarint(b, uint64(start))
	return binary.AppendUvarint(b, uint64(end-start))
}

// badGFU names the index and the GFUKey of a stored value that did not decode.
func (ix *Index) badGFU(storeKey string, err error) error {
	return fmt.Errorf("dgf: index %q: stored GFU %s: %w", ix.Spec.Name, storeKey[len(gfuPrefix):], err)
}

// gfuReader walks an encoded GFUValue in place. A malformed field empties
// the reader and sets bad, so callers check once, at the end.
type gfuReader struct {
	b   []byte
	bad bool
}

// uvarint reads one number: in int64 range and minimally encoded, so that
// whatever decodes re-encodes to the same bytes.
func (r *gfuReader) uvarint() int64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) || v > math.MaxInt64 {
		r.b, r.bad = nil, true
		return 0
	}
	r.b = r.b[n:]
	return int64(v)
}

// readHeader decodes the header at the front of an encoded GFUValue into h,
// whose length and functions the index's pre-compute list fixes, and returns
// the location half.
func readHeader(h Header, data []byte) ([]byte, error) {
	r := gfuReader{b: data}
	for i := range h {
		n := r.uvarint()
		h[i].N, h[i].Value = n, float64(n)
		if n > 0 && h[i].Func != AggCount {
			if len(r.b) < 8 {
				return nil, errBadGFUValue
			}
			h[i].Value = math.Float64frombits(binary.LittleEndian.Uint64(r.b))
			r.b = r.b[8:]
			r.bad = r.bad || math.IsNaN(h[i].Value)
		}
	}
	if r.bad {
		return nil, errBadGFUValue
	}
	return r.b, nil
}

// readSlices appends the Slices of a GFUValue's location half to dst; locs
// must hold exactly the count it announces.
func (ix *Index) readSlices(dst []SliceLoc, locs []byte) ([]SliceLoc, error) {
	r := gfuReader{b: locs}
	for n := r.uvarint(); n > 0 && !r.bad; n-- {
		gen, task, start, length := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
		if start+length < start {
			r.bad = true
		}
		dst = append(dst, SliceLoc{File: ix.partFile(gen, task), Start: start, End: start + length})
	}
	if r.bad || len(r.b) > 0 {
		return nil, errBadGFUValue
	}
	return dst, nil
}

// DecodeGFUValue decodes one stored GFUValue of this index.
func (ix *Index) DecodeGFUValue(data []byte) (GFUValue, error) {
	v := GFUValue{Header: NewHeader(ix.Spec.Precompute)}
	locs, err := readHeader(v.Header, data)
	if err == nil {
		v.Slices, err = ix.readSlices(nil, locs)
	}
	return v, err
}

// partFile names the reorganised data file reduce task `task` of build run
// `gen` writes. Every Slice of a file shares one string.
func (ix *Index) partFile(gen, task int64) string {
	id := [2]int64{gen, task}
	ix.filesMu.RLock()
	name, ok := ix.files[id]
	ix.filesMu.RUnlock()
	if !ok {
		name = path.Join(ix.DataDir, fmt.Sprintf("part-%d-r-%05d", gen, task))
		ix.filesMu.Lock()
		if ix.files == nil {
			ix.files = map[[2]int64]string{}
		}
		ix.files[id] = name
		ix.filesMu.Unlock()
	}
	return name
}

// Spec describes a DGFIndex to build: the grid splitting policy over the
// table's index dimensions plus the pre-computed aggregations. It is what
// the paper's CREATE INDEX ... IDXPROPERTIES statement (Listing 3) denotes.
type Spec struct {
	Name string
	// Policy orders the index dimensions; each must name a table column.
	Policy gridfile.Policy
	// Precompute lists the additive aggregations stored per GFU.
	Precompute []AggSpec
}

// Validate checks the spec against a table schema.
func (s *Spec) Validate(schema *storage.Schema) error {
	if err := s.Policy.Validate(); err != nil {
		return err
	}
	for _, d := range s.Policy.Dims {
		i := schema.ColIndex(d.Name)
		if i < 0 {
			return fmt.Errorf("dgf: index dimension %q is not a table column", d.Name)
		}
		if schema.Col(i).Kind != d.Kind {
			return fmt.Errorf("dgf: dimension %q kind %v does not match column kind %v",
				d.Name, d.Kind, schema.Col(i).Kind)
		}
	}
	for _, a := range s.Precompute {
		for _, factor := range a.Factors() {
			if schema.ColIndex(factor) < 0 {
				return fmt.Errorf("dgf: pre-compute column %q is not a table column", factor)
			}
		}
	}
	return nil
}

// Index is an opened DGFIndex: the GFU pairs and metadata in a key-value
// store plus the reorganised data files in the filesystem.
type Index struct {
	FS     *dfs.FS
	KV     *kvstore.Store
	Spec   Spec
	Schema *storage.Schema
	// DataDir holds the reorganised Slice files. Queries on the indexed
	// table read these files (the build job reorganises the base table).
	DataDir string
	// Format is the storage format of the reorganised data (it matches the
	// base table's). Slice locations are line-granular for TextFile and
	// row-group-granular for RCFile.
	Format storage.Format
	// GroupRows sizes the reorganised data's RCFile row groups.
	GroupRows int

	dimCols    []int   // schema column index per policy dimension
	aggCols    [][]int // schema column indexes (product factors) per precompute spec; nil for count
	minCell    []int64 // observed data bounds per dimension, in cells
	maxCell    []int64
	gfuBytes   atomic.Int64 // SizeBytes: key and value bytes of every GFU pair
	gfuEntries atomic.Int64 // Entries: number of GFU pairs

	filesMu sync.RWMutex
	files   map[[2]int64]string // partFile: (generation, task) → data file path
}

func (ix *Index) resolveColumns() error {
	ix.dimCols = make([]int, len(ix.Spec.Policy.Dims))
	for i, d := range ix.Spec.Policy.Dims {
		c := ix.Schema.ColIndex(d.Name)
		if c < 0 {
			return fmt.Errorf("dgf: dimension column %q missing from schema", d.Name)
		}
		ix.dimCols[i] = c
	}
	ix.aggCols = make([][]int, len(ix.Spec.Precompute))
	for i, a := range ix.Spec.Precompute {
		for _, factor := range a.Factors() {
			c := ix.Schema.ColIndex(factor)
			if c < 0 {
				return fmt.Errorf("dgf: pre-compute column %q missing from schema", factor)
			}
			ix.aggCols[i] = append(ix.aggCols[i], c)
		}
	}
	return nil
}

// cellsOfRow standardises one record into its GFU cell coordinates
// (Algorithm 1 lines 1-5). The coordinates are appended to cells, so a caller
// passing a slice with spare capacity pays no allocation.
func (ix *Index) cellsOfRow(row storage.Row, cells []int64) []int64 {
	for i, col := range ix.dimCols {
		cells = append(cells, ix.Spec.Policy.Dims[i].CellOf(row[col]))
	}
	return cells
}

// foldRow folds one decoded record into header h (Algorithm 2 lines 6-12).
// Product pre-computes multiply their factor columns per record.
func (ix *Index) foldRow(row storage.Row, h Header) {
	for i := range h {
		v := 0.0
		for fi, col := range ix.aggCols[i] {
			if f := row[col].AsFloat(); fi == 0 {
				v = f
			} else {
				v *= f
			}
		}
		h[i].Fold(v)
	}
}

// --- metadata persistence ---

func encodePolicy(p gridfile.Policy) []byte {
	var b strings.Builder
	for i, d := range p.Dims {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s\x01%s\x01%s", d.Name, d.Kind.String(), d.Spec())
	}
	return []byte(b.String())
}

func encodeSpecs(specs []AggSpec) []byte {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = s.String()
	}
	return []byte(strings.Join(parts, ";"))
}

// saveMeta persists the index description and data bounds, as the paper
// keeps them in HBase. Nothing reopens an index from them (a rebooted fleet
// re-runs its CREATE INDEX from the log); Plan reads the bounds to charge the
// round trip. It returns the puts it made, for the run's ledger.
func (ix *Index) saveMeta() (puts int64) {
	put := func(key string, value []byte) {
		ix.KV.Put(key, value)
		puts++
	}
	put(metaPolicy, encodePolicy(ix.Spec.Policy))
	put(metaPrecomp, encodeSpecs(ix.Spec.Precompute))
	put(metaDataDir, []byte(ix.DataDir))
	put(metaFormat, []byte(strings.ToLower(ix.Format.String())))
	put(metaGroupRows, []byte(strconv.Itoa(ix.GroupRows)))
	for i := range ix.Spec.Policy.Dims {
		put(metaMinPrefix+strconv.Itoa(i), []byte(strconv.FormatInt(ix.minCell[i], 10)))
		put(metaMaxPrefix+strconv.Itoa(i), []byte(strconv.FormatInt(ix.maxCell[i], 10)))
	}
	return puts
}

// Entries returns the number of GFU pairs (the paper's index-record count).
// Like SizeBytes it is a running total.
func (ix *Index) Entries() int { return int(ix.gfuEntries.Load()) }

// SizeBytes returns the index size: all GFU keys and values (Table 2/5's
// "Size" column for DGFIndex). It is a running total that every write of GFU
// pairs adjusts, so asking costs no scan of the store.
func (ix *Index) SizeBytes() int64 { return ix.gfuBytes.Load() }

// recountGFUs resets the Entries and SizeBytes totals from the store.
func (ix *Index) recountGFUs() {
	pairs := ix.KV.ScanPrefix(gfuPrefix)
	var bytes int64
	for _, p := range pairs {
		bytes += int64(len(p.Key) + len(p.Value))
	}
	ix.gfuEntries.Store(int64(len(pairs)))
	ix.gfuBytes.Store(bytes)
}

// Bounds returns the observed per-dimension data bounds in cell coordinates.
func (ix *Index) Bounds() (lo, hi []int64) {
	lo = make([]int64, len(ix.minCell))
	hi = make([]int64, len(ix.maxCell))
	copy(lo, ix.minCell)
	copy(hi, ix.maxCell)
	return lo, hi
}

// lookupGFU fetches and decodes one GFU pair.
func (ix *Index) lookupGFU(key string) (GFUValue, bool, error) {
	data, ok := ix.KV.Get(gfuPrefix + key)
	if !ok {
		return GFUValue{}, false, nil
	}
	v, err := ix.DecodeGFUValue(data)
	return v, err == nil, err
}
