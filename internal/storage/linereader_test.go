package storage

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// lineReaderFile is a text file of 2,000 lines of 1 to 299 bytes with one
// 150,000-byte line in the middle, so ranges cross fetch boundaries inside
// short lines and inside a line longer than two fetches. trailing ends it
// with a newline or leaves its last line open.
func lineReaderFile(trailing bool) []byte {
	var data []byte
	for i := 0; i < 2000; i++ {
		n := 1 + (i*7919)%299
		if i == 1000 {
			n = 150000
		}
		for j := 0; j < n; j++ {
			data = append(data, 'a'+byte((i+j)%26))
		}
		if trailing || i < 1999 {
			data = append(data, '\n')
		}
	}
	return data
}

// ownedLines is the split contract on data: the lines whose start s has
// first <= s <= end (s < end when exact) and s < len(data), where first is
// start, or just past the first newline at or after start when skipFirst. An
// exact range's last line stops at end. need is how far a reader must fetch
// to find them: the end of the last line it scans, or of the skipped one.
func ownedLines(data []byte, start, end int64, skipFirst, exact bool) (lines []string, offs []int64, need int64) {
	if end <= start {
		return nil, nil, start
	}
	first := start
	if skipFirst {
		i := bytes.IndexByte(data[start:], '\n')
		if i < 0 {
			return nil, nil, int64(len(data))
		}
		first = start + int64(i) + 1
	}
	need = first
	for s := first; s < int64(len(data)) && (s < end || !exact && s == end); {
		e := int64(len(data))
		if i := bytes.IndexByte(data[s:], '\n'); i >= 0 {
			e = s + int64(i)
		}
		if exact && e > end {
			e = end
		}
		lines, offs = append(lines, string(data[s:e])), append(offs, s)
		need = min(e+1, int64(len(data)))
		s = e + 1
	}
	return lines, offs, need
}

// fetched is how many bytes a reader from start fetches to hold data up to
// need: 64 KB at a time within [start, end), the last fetch clamped to end,
// then 512 at a time past end (Hadoop-mode ranges only), never past the file.
func fetched(size, start, end, need int64, exact bool) int64 {
	if need <= start {
		return 0
	}
	pos := start
	for pos < need && pos < size {
		switch {
		case pos < end:
			pos += min(readChunk, end-pos)
		case exact:
			return min(end, size) - start
		default:
			pos += tailChunk
		}
	}
	return min(pos, size) - start
}

// lrFile locates the ranges of TestLineReaderTable in one lineReaderFile.
type lrFile struct {
	data []byte
	size int64
	long int64 // the 150,000-byte line's start
}

// lineAfter returns the start of the first line that starts after off.
func (f lrFile) lineAfter(off int64) int64 {
	return off + int64(bytes.IndexByte(f.data[off:], '\n')) + 1
}

// TestLineReaderTable pins what a LineReader returns and fetches across split
// starts, range ends and tail reads: every line and offset the split
// contract gives, and BytesRead the size of the fetches that find them.
func TestLineReaderTable(t *testing.T) {
	cases := []struct {
		name      string
		span      func(f lrFile) (start, end int64)
		skipFirst bool
		exact     bool
	}{
		{"whole file, first split", func(f lrFile) (int64, int64) { return 0, f.size }, false, false},
		{"first split ends mid-line", func(f lrFile) (int64, int64) { return 0, 70000 }, false, false},
		{"split starts mid-line", func(f lrFile) (int64, int64) { return 70000, 140000 }, true, false},
		{"split starts at a line start", func(f lrFile) (int64, int64) { s := f.lineAfter(5000); return s, s + 2000 }, true, false},
		{"split starting at the long line owns none of it", func(f lrFile) (int64, int64) { return f.long, f.long + 100 }, true, false},
		{"split ends at a line start", func(f lrFile) (int64, int64) { return 0, f.long }, false, false},
		{"tail reads finish a line longer than two fetches", func(f lrFile) (int64, int64) { return f.long - 10, f.long + 5 }, true, false},
		{"range inside the long line owns nothing", func(f lrFile) (int64, int64) { return f.long + 10, f.long + 140000 }, true, false},
		{"last split of the file", func(f lrFile) (int64, int64) { return f.long + 150001, f.size }, true, false},
		{"tail read hits the end of the file", func(f lrFile) (int64, int64) {
			end := int64(bytes.LastIndexByte(f.data[:f.size-1], '\n')) + 2 // inside the last line
			return end - 400, end
		}, true, false},
		{"split past the file", func(f lrFile) (int64, int64) { return f.size, f.size + 100 }, true, false},
		{"empty range", func(f lrFile) (int64, int64) { return 5000, 5000 }, true, false},
		{"exact slice of short lines", func(f lrFile) (int64, int64) { s := f.lineAfter(3000); return s, f.lineAfter(s + 900) }, false, true},
		{"exact slice across a fetch boundary", func(f lrFile) (int64, int64) {
			s := f.lineAfter(60000)
			return s, f.lineAfter(s + readChunk + 300)
		}, false, true},
		{"exact slice of the long line", func(f lrFile) (int64, int64) { return f.long, f.long + 150001 }, false, true},
		{"exact slice ends mid-line", func(f lrFile) (int64, int64) { return 0, 65600 }, false, true},
	}
	for _, trailing := range []bool{true, false} {
		f := lrFile{data: lineReaderFile(trailing)}
		f.size = int64(len(f.data))
		for i := 0; i < 1000; i++ {
			f.long = f.lineAfter(f.long)
		}
		fs := dfs.New(1 << 16)
		if err := fs.WriteFile("/t", f.data); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			start, end := c.span(f)
			t.Run(fmt.Sprintf("%s/trailing=%v", c.name, trailing), func(t *testing.T) {
				r, err := fs.Open("/t")
				if err != nil {
					t.Fatal(err)
				}
				lr := NewLineReaderOpts(r, start, end, c.skipFirst, !c.exact)
				var lines []string
				var offs []int64
				for {
					line, off, ok := lr.Next()
					if !ok {
						break
					}
					lines, offs = append(lines, string(line)), append(offs, off)
				}
				wantLines, wantOffs, need := ownedLines(f.data, start, end, c.skipFirst, c.exact)
				if len(lines) != len(wantLines) {
					t.Fatalf("[%d, %d): %d lines, want %d", start, end, len(lines), len(wantLines))
				}
				for i := range lines {
					if lines[i] != wantLines[i] || offs[i] != wantOffs[i] {
						t.Fatalf("[%d, %d): line %d at %d (%d bytes), want at %d (%d bytes)", start, end, i, offs[i], len(lines[i]), wantOffs[i], len(wantLines[i]))
					}
				}
				if got, want := lr.BytesRead(), fetched(f.size, start, end, need, c.exact); got != want {
					t.Errorf("[%d, %d): BytesRead %d, want %d", start, end, got, want)
				}
			})
		}
	}
}
