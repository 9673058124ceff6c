package storage

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// TextDelim is the field delimiter of the TextFile format. The paper's tables
// use Hive's default ^A; a comma renders the same and stays debuggable.
const TextDelim = ','

// EncodeTextRow renders a row as one delimited line without the trailing
// newline.
func EncodeTextRow(row Row) string {
	var buf []byte
	for i, v := range row {
		if i > 0 {
			buf = append(buf, TextDelim)
		}
		buf = v.AppendText(buf)
	}
	return string(buf)
}

// AppendTextRow appends the delimited rendering of row plus '\n' to dst.
func AppendTextRow(dst []byte, row Row) []byte {
	for i, v := range row {
		if i > 0 {
			dst = append(dst, TextDelim)
		}
		dst = v.AppendText(dst)
	}
	return append(dst, '\n')
}

// CheckTextRow reports a cell the delimited text encoding cannot carry: a
// string holding a newline (which also separates the cells of an RCFile
// column), or holding the field delimiter in any column but the last, whose
// field runs to the end of the line. Nothing escapes either, so such a row
// would be written without complaint and then fail every decode of its table;
// the load paths refuse it up front.
//
// It also refuses a string holding \x01 in any column. A multi-column GROUP
// BY key, and a Compact/Aggregate index key, joins its cells' text with that
// byte and splits it back to render the answer, so such a cell would shift
// every cell after it and the group would come back with the wrong values.
//
// And it refuses a timestamp outside the years 0000-9999: the text renders
// such a year with more than four digits ("10000-01-01"), which no decode
// reads back.
func CheckTextRow(row Row) error {
	for i, v := range row {
		if v.Kind == KindTime && (v.I < minLayoutUnix || v.I > maxLayoutUnix) {
			return fmt.Errorf("storage: column %d: timestamp %d (Unix seconds) is outside the years 0000-9999 the text format can carry", i+1, v.I)
		}
		if v.Kind != KindString {
			continue
		}
		if strings.IndexByte(v.S, '\n') >= 0 {
			return fmt.Errorf("storage: column %d: string cell %q holds a newline", i+1, v.S)
		}
		if strings.IndexByte(v.S, '\x01') >= 0 {
			return fmt.Errorf("storage: column %d: string cell %q holds the group-key separator \\x01", i+1, v.S)
		}
		if i < len(row)-1 && strings.IndexByte(v.S, TextDelim) >= 0 {
			return fmt.Errorf("storage: column %d: string cell %q holds the field delimiter %q outside the last column", i+1, v.S, TextDelim)
		}
	}
	return nil
}

// CheckRows is the check every load makes before it logs a record or
// creates a file: each row has the schema's arity and only cells
// CheckTextRow admits. A row that fails it would be written without
// complaint by the text writer, or half-way by the RCFile writer, and then
// fail every later read of its table, or answer a GROUP BY wrong.
func CheckRows(schema *Schema, rows []Row) error {
	for i, row := range rows {
		if len(row) != schema.Len() {
			return fmt.Errorf("row %d has %d columns, the table has %d", i, len(row), schema.Len())
		}
		if err := CheckTextRow(row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// DecodeTextRow parses one delimited line according to the schema.
func DecodeTextRow(schema *Schema, line string) (Row, error) {
	row := make(Row, schema.Len())
	if err := DecodeTextRowInto(schema, line, nil, row); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeTextRowInto is DecodeTextRow into a row the caller owns (one cell per
// schema column), for loops that consume each decoded row before the next,
// restricted to the flagged columns (nil parses all): the other cells of row
// are left alone, but the line must still hold every field. String cells
// alias line.
func DecodeTextRowInto(schema *Schema, line string, project []bool, row Row) error {
	rest := line
	for i := 0; i < schema.Len(); i++ {
		var field string
		if i == schema.Len()-1 {
			field = rest
		} else {
			j := strings.IndexByte(rest, TextDelim)
			if j < 0 {
				return fmt.Errorf("storage: line has %d fields, schema wants %d: %q", i+1, schema.Len(), line)
			}
			field, rest = rest[:j], rest[j+1:]
		}
		if project != nil && !project[i] {
			continue
		}
		v, err := ParseValue(schema.Col(i).Kind, field)
		if err != nil {
			return err
		}
		row[i] = v
	}
	return nil
}

// DecodeTextLineInto is DecodeTextRowInto over a line held as bytes, such as
// a shuffled value: numeric cells parse from the bytes where they lie, and
// only the string cells of flagged columns are copied, so row keeps nothing
// of line. It is its own field walk, not a generic one shared with
// DecodeTextRowInto, so that the TextFile query decode keeps its string-only
// loop (a per-field type-parameter dispatch slowed it on wide rows).
func DecodeTextLineInto(schema *Schema, line []byte, project []bool, row Row) error {
	rest := line
	for i := 0; i < schema.Len(); i++ {
		field := rest
		if i < schema.Len()-1 {
			j := bytes.IndexByte(rest, TextDelim)
			if j < 0 {
				return fmt.Errorf("storage: line has %d fields, schema wants %d: %q", i+1, schema.Len(), line)
			}
			field, rest = rest[:j], rest[j+1:]
		}
		if project != nil && !project[i] {
			continue
		}
		v, err := parseCell(schema.Col(i).Kind, field)
		if err != nil {
			return err
		}
		row[i] = v
	}
	return nil
}

// TextFieldBytes extracts the i-th delimited field of a line without decoding
// the whole row.
func TextFieldBytes(line []byte, i int) ([]byte, bool) {
	start := 0
	for ; i > 0; i-- {
		j := bytes.IndexByte(line[start:], TextDelim)
		if j < 0 {
			return nil, false
		}
		start += j + 1
	}
	if j := bytes.IndexByte(line[start:], TextDelim); j >= 0 {
		return line[start : start+j], true
	}
	return line[start:], true
}

// TextWriter buffers delimited lines into a dfs file.
type TextWriter struct {
	w     *dfs.FileWriter
	buf   []byte
	off   int64
	times []timeText // per column, the last timestamp WriteRow rendered
}

// timeText is a timestamp cell's rendering, kept while the next rows repeat
// it: a day's load holds one date.
type timeText struct {
	sec  int64
	text []byte // nil until a timestamp is rendered
}

// NewTextWriter wraps a dfs writer. The caller owns Close.
func NewTextWriter(w *dfs.FileWriter) *TextWriter {
	return &TextWriter{w: w, buf: make([]byte, 0, 1<<16), off: w.Size()}
}

// Offset returns the byte offset at which the next row will start. For the
// TextFile format this is the BLOCK_OFFSET_INSIDE_FILE that Hive's indexes
// record per row.
func (t *TextWriter) Offset() int64 { return t.off }

// WriteRow appends one encoded row: AppendTextRow's bytes, a timestamp
// cell copied from the column's last rendering while its seconds repeat.
func (t *TextWriter) WriteRow(row Row) error {
	before := len(t.buf)
	for i := range row {
		if i > 0 {
			t.buf = append(t.buf, TextDelim)
		}
		if v := &row[i]; v.Kind == KindTime {
			t.buf = append(t.buf, t.timeText(i, v.I)...)
		} else {
			t.buf = v.AppendText(t.buf)
		}
	}
	t.buf = append(t.buf, '\n')
	t.off += int64(len(t.buf) - before)
	if len(t.buf) >= 1<<16 {
		return t.flush()
	}
	return nil
}

// timeText returns the rendering of timestamp sec in column col.
func (t *TextWriter) timeText(col int, sec int64) []byte {
	if col >= len(t.times) {
		t.times = append(t.times, make([]timeText, col+1-len(t.times))...)
	}
	c := &t.times[col]
	if c.text == nil || c.sec != sec {
		c.sec, c.text = sec, appendTimeText(c.text[:0], sec)
	}
	return c.text
}

// WriteLine appends a raw line (no delimiter re-encoding), adding '\n'.
func (t *TextWriter) WriteLine(line []byte) error {
	t.buf = append(t.buf, line...)
	t.buf = append(t.buf, '\n')
	t.off += int64(len(line) + 1)
	if len(t.buf) >= 1<<16 {
		return t.flush()
	}
	return nil
}

func (t *TextWriter) flush() error {
	if len(t.buf) == 0 {
		return nil
	}
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}

// Close flushes buffered rows and closes the underlying file.
func (t *TextWriter) Close() error {
	if err := t.flush(); err != nil {
		return err
	}
	return t.w.Close()
}

// LineReader iterates the lines of one byte range of a text file, following
// the split semantics of Hadoop's text input format: a reader starting at
// offset 0 owns the first line; a reader starting mid-file skips the
// (possibly partial) line in progress and starts at the next line; a line
// starting at exactly the range end still belongs to this reader (Hadoop
// reads while pos <= end), so every reader may read past its range end to
// finish the lines it owns.
type LineReader struct {
	r         *dfs.FileReader
	pos       int64 // next byte to fetch from the file
	end       int64 // split end; lines starting at or after this belong to the next split
	lineStart int64 // offset of the line most recently returned
	buf       []byte
	bufStart  int64 // file offset of buf[0]
	scan      int   // scan position within buf
	done      bool
	exact     bool // exact-bounds mode: end is exclusive (slice reading)
	bytesRead int64
}

// readChunk is the fetch granularity of LineReader within its range;
// tailChunk is the granularity used past the range end when finishing the
// final owned line (Hadoop-mode readers only).
const (
	readChunk = 64 << 10
	tailChunk = 512
)

// NewLineReader reads the lines of split [start, end) of file r.
func NewLineReader(r *dfs.FileReader, start, end int64) *LineReader {
	return NewLineReaderOpts(r, start, end, start > 0, true)
}

func (lr *LineReader) fill() bool {
	if lr.pos >= lr.r.Size() {
		return false
	}
	// Clamp the fetch to the reader's range so that byte accounting (and
	// the work the model filesystem performs) reflects what the reader
	// actually owns: a reader over a 200-byte Slice must not pull 64 KB.
	want := int64(readChunk)
	if lr.pos < lr.end {
		if rem := lr.end - lr.pos; rem < want {
			want = rem
		}
	} else {
		if lr.exact {
			// Exact-bound readers never read past their end; Slices always
			// terminate on a line boundary.
			return false
		}
		// Hadoop-mode readers finish the line in progress in small steps.
		want = tailChunk
	}
	if want <= 0 {
		return false
	}
	// The lines already returned are dropped: the unscanned tail moves to
	// the front and the file's bytes land right after it, so the buffer
	// holds one partial line and one fetch.
	if lr.scan > 0 {
		lr.bufStart += int64(lr.scan)
		lr.buf = lr.buf[:copy(lr.buf, lr.buf[lr.scan:])]
		lr.scan = 0
	}
	have := len(lr.buf)
	lr.buf = slices.Grow(lr.buf, int(want))
	n, err := lr.r.ReadAt(lr.buf[have:have+int(want)], lr.pos)
	lr.buf = lr.buf[:have+n]
	if n == 0 && err != nil {
		return false
	}
	lr.pos += int64(n)
	lr.bytesRead += int64(n)
	return true
}

func (lr *LineReader) skipPartialLine() {
	for {
		if i := bytes.IndexByte(lr.buf[lr.scan:], '\n'); i >= 0 {
			lr.scan += i + 1
			return
		}
		lr.scan = len(lr.buf)
		if !lr.fill() {
			lr.done = true
			return
		}
	}
}

// Next returns the next line (without '\n'), its starting byte offset in the
// file, and whether a line was available. The returned slice is only valid
// until the next call.
func (lr *LineReader) Next() (line []byte, offset int64, ok bool) {
	if lr.done {
		return nil, 0, false
	}
	start := lr.bufStart + int64(lr.scan)
	if start > lr.end || (lr.exact && start >= lr.end) {
		lr.done = true
		return nil, 0, false
	}
	for {
		if i := bytes.IndexByte(lr.buf[lr.scan:], '\n'); i >= 0 {
			line = lr.buf[lr.scan : lr.scan+i]
			lr.lineStart = start
			lr.scan += i + 1
			return line, start, true
		}
		if !lr.fill() {
			// Final line without trailing newline.
			if lr.scan < len(lr.buf) {
				line = lr.buf[lr.scan:]
				lr.lineStart = start
				lr.scan = len(lr.buf)
				lr.done = true
				return line, start, true
			}
			lr.done = true
			return nil, 0, false
		}
	}
}

// BytesRead returns the raw bytes fetched from the file so far.
func (lr *LineReader) BytesRead() int64 { return lr.bytesRead }

// NewLineReaderOpts gives full control over the boundary rules: skipFirst
// discards everything up to and including the first newline at or after
// start (use when start may fall mid-line); inclusiveEnd additionally owns a
// line starting exactly at end (Hadoop's pos <= end rule; use when the range
// end is an arbitrary cut paired with a following skipFirst reader).
func NewLineReaderOpts(r *dfs.FileReader, start, end int64, skipFirst, inclusiveEnd bool) *LineReader {
	lr := &LineReader{r: r, pos: start, end: end, bufStart: start, exact: !inclusiveEnd}
	if end <= start {
		// Degenerate empty range: owns nothing.
		lr.done = true
		return lr
	}
	if skipFirst {
		lr.skipPartialLine()
	}
	return lr
}

// ReadAllLines is a convenience for tests: all lines of an entire file.
func ReadAllLines(r *dfs.FileReader) ([]string, error) {
	lr := NewLineReader(r, 0, r.Size())
	var out []string
	for {
		line, _, ok := lr.Next()
		if !ok {
			break
		}
		out = append(out, string(line))
	}
	return out, nil
}

// WriteTextRows writes rows to a new text file at path.
func WriteTextRows(fs *dfs.FS, path string, rows []Row) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	tw := NewTextWriter(w)
	for _, r := range rows {
		if err := tw.WriteRow(r); err != nil {
			return err
		}
	}
	return tw.Close()
}
