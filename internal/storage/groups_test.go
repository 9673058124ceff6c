package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// TestReadGroupsMatchesWriter: the row-group addresses ReadGroups derives
// from a file's column statistics are the addresses its writer flushed the
// groups at, each group's EncodedSize is exactly the bytes the group spans on
// disk, and reading it is charged its ChargedSize. The files are random: encoded groups and plain 'R' groups, Flush
// at random rows, one-row groups, and an empty file; small blocks make
// groups straddle block boundaries.
func TestReadGroupsMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	s := encodableSchema()
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	var encoded, plain, packed, oneRow, empty int
	for file := 0; file < 120; file++ {
		fs := dfs.New(1 << 10)
		path := fmt.Sprintf("/t/f%03d", file)
		w, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		groupRows := 1 + rng.Intn(24)
		if file%7 == 0 {
			groupRows = 1
		}
		rw := NewRCWriter(w, s, groupRows)
		if file%3 == 0 {
			rw.DisableEncoding()
		}
		n := rng.Intn(200)
		if file == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			city := testCities[rng.Intn(len(testCities))]
			if rng.Intn(5) == 0 {
				city = fmt.Sprintf("c%d", rng.Intn(1000))
			}
			row := Row{
				Int64(rng.Int63n(1 << 40)),
				Str(city),
				Time(base.AddDate(0, 0, i/16)),
				Float64(float64(rng.Intn(100000)) / 100),
			}
			if err := rw.WriteRow(row); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(12) == 0 {
				if err := rw.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := WriteColStats(fs, path, s, rw.GroupStats()); err != nil {
			t.Fatal(err)
		}

		offsets, stats, err := ReadGroups(fs, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !slices.Equal(offsets, rw.GroupOffsets()) {
			t.Fatalf("%s: ReadGroups offsets %v, the writer flushed at %v", path, offsets, rw.GroupOffsets())
		}
		index, err := ReadGroupIndex(fs, path)
		if err != nil || !slices.Equal(index, rw.GroupOffsets()) {
			t.Fatalf("%s: ReadGroupIndex = %v, %v; the writer flushed at %v", path, index, err, rw.GroupOffsets())
		}
		if len(offsets) == 0 {
			empty++
		}
		r, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for g, off := range offsets {
			grp, read, err := ReadGroupProjected(r, off, nil)
			if err != nil {
				t.Fatalf("%s: group %d at %d: %v", path, g, off, err)
			}
			if grp.Size != stats[g].EncodedSize() || read != stats[g].ChargedSize() {
				t.Fatalf("%s: group %d at %d spans %d bytes and reads %d, its EncodedSize is %d and its ChargedSize %d", path, g, off, grp.Size, read, stats[g].EncodedSize(), stats[g].ChargedSize())
			}
			if g > 0 && off != offsets[g-1]+stats[g-1].ChargedSize() {
				t.Fatalf("%s: group %d at %d, the one before it ends at %d", path, g, off, offsets[g-1]+stats[g-1].ChargedSize())
			}
			if stats[g].Charged != nil {
				packed++
			}
			if stats[g].Encs == nil {
				plain++
			} else {
				encoded++
			}
			if stats[g].Rows == 1 {
				oneRow++
			}
		}
	}
	t.Logf("%d encoded groups (%d packed), %d plain groups, %d one-row groups, %d empty files", encoded, packed, plain, oneRow, empty)
	if encoded == 0 || packed == 0 || plain == 0 || oneRow == 0 || empty == 0 {
		t.Fatal("the random files missed a shape")
	}
}
