package dfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestMkdirAndStat(t *testing.T) {
	fs := New(16)
	if err := fs.MkdirAll("/warehouse/meterdata"); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/warehouse/meterdata")
	if err != nil {
		t.Fatal(err)
	}
	if !fi.IsDir || fi.Name != "meterdata" {
		t.Errorf("Stat = %+v, want dir named meterdata", fi)
	}
	if _, err := fs.Stat("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Stat missing = %v, want ErrNotExist", err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs := New(8) // tiny blocks to force multi-block files
	w, err := fs.Create("/t/data.txt")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello, smart grid meter data!")
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/t/data.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("ReadFile = %q, want %q", got, payload)
	}
	fi, _ := fs.Stat("/t/data.txt")
	wantBlocks := (len(payload) + 7) / 8
	if fi.Blocks != wantBlocks {
		t.Errorf("Blocks = %d, want %d", fi.Blocks, wantBlocks)
	}
}

func TestCreateExistingFails(t *testing.T) {
	fs := New(0)
	w, _ := fs.Create("/a/b")
	w.Close()
	if _, err := fs.Create("/a/b"); !errors.Is(err, ErrExist) {
		t.Errorf("Create existing = %v, want ErrExist", err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	fs := New(0)
	w, _ := fs.Create("/f")
	w.Close()
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("Write after Close succeeded, want error")
	}
}

// TestCloseTrimsBlocks: small writes grow a file's last block by append,
// with spare capacity; once the file is closed no block holds more than its
// bytes, and the bytes are unchanged.
func TestCloseTrimsBlocks(t *testing.T) {
	fs := New(1000)
	w, err := fs.Create("/t/part-0")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 700; i++ {
		line := []byte{byte(i), ',', byte(i >> 8), '\n'}
		want = append(want, line...)
		if _, err := w.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(w.f.blocks) != 3 {
		t.Fatalf("%d blocks, want 3", len(w.f.blocks))
	}
	for i, b := range w.f.blocks {
		if cap(b) != len(b) {
			t.Fatalf("block %d of a closed file: cap %d, len %d", i, cap(b), len(b))
		}
	}
	if got, err := fs.ReadFile("/t/part-0"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadFile after Close: %d bytes, want %d (%v)", len(got), len(want), err)
	}
}

func TestReadAt(t *testing.T) {
	fs := New(4)
	w, _ := fs.Create("/f")
	w.WriteString("0123456789")
	w.Close()
	r, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := r.ReadAt(buf, 3); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "345" {
		t.Errorf("ReadAt(3) = %q, want 345", buf)
	}
	// Read crossing block boundary.
	buf = make([]byte, 6)
	if _, err := r.ReadAt(buf, 2); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "234567" {
		t.Errorf("cross-block ReadAt = %q, want 234567", buf)
	}
	// Read past end returns EOF with partial data.
	buf = make([]byte, 5)
	n, err := r.ReadAt(buf, 8)
	if err != io.EOF || n != 2 || string(buf[:n]) != "89" {
		t.Errorf("tail ReadAt = (%d, %v, %q)", n, err, buf[:n])
	}
	if _, err := r.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("ReadAt past EOF = %v, want EOF", err)
	}
}

func TestSequentialReadAndSeek(t *testing.T) {
	fs := New(4)
	w, _ := fs.Create("/f")
	w.WriteString("abcdefgh")
	w.Close()
	r, _ := fs.Open("/f")
	all, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(all) != "abcdefgh" {
		t.Errorf("ReadAll = %q", all)
	}
	if _, err := r.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 2)
	r.Read(b)
	if string(b) != "cd" {
		t.Errorf("after seek read %q, want cd", b)
	}
}

func TestSplits(t *testing.T) {
	fs := New(10)
	w, _ := fs.Create("/tbl/part-0")
	w.Write(make([]byte, 25))
	w.Close()
	splits, err := fs.Splits("/tbl/part-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("got %d splits, want 3", len(splits))
	}
	if splits[0].Length != 10 || splits[2].Length != 5 {
		t.Errorf("split lengths wrong: %+v", splits)
	}
	if splits[1].Start != 10 || splits[1].End() != 20 {
		t.Errorf("middle split = %+v", splits[1])
	}
}

func TestDirSplits(t *testing.T) {
	fs := New(10)
	for _, name := range []string{"/tbl/b", "/tbl/a"} {
		w, _ := fs.Create(name)
		w.Write(make([]byte, 15))
		w.Close()
	}
	fs.MkdirAll("/tbl/subdir") // directories are skipped
	splits, err := fs.DirSplits("/tbl")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("got %d splits, want 4", len(splits))
	}
	if splits[0].Path != "/tbl/a" || splits[2].Path != "/tbl/b" {
		t.Errorf("splits not ordered by file name: %+v", splits)
	}
}

func TestRemove(t *testing.T) {
	fs := New(0)
	w, _ := fs.Create("/a/f")
	w.Close()
	if err := fs.Remove("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("Remove non-empty dir = %v, want ErrNotEmpty", err)
	}
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Error("RemoveAll left the subtree")
	}
	if err := fs.RemoveAll("/missing"); err != nil {
		t.Errorf("RemoveAll missing = %v, want nil", err)
	}
}

func TestNameNodeUsage(t *testing.T) {
	fs := New(10)
	// The paper's example: multidimensional partition directories are
	// expensive. 3 dims x 3 values each = 27 leaf dirs.
	for _, a := range []string{"1", "2", "3"} {
		for _, b := range []string{"1", "2", "3"} {
			for _, c := range []string{"1", "2", "3"} {
				fs.MkdirAll("/part/a=" + a + "/b=" + b + "/c=" + c)
			}
		}
	}
	st := fs.NameNodeUsage()
	// root + part + 3 + 9 + 27 = 41 dirs
	if st.Dirs != 41 {
		t.Errorf("Dirs = %d, want 41", st.Dirs)
	}
	if st.MemoryBytes != int64(41)*NameNodeBytesPerObject {
		t.Errorf("MemoryBytes = %d", st.MemoryBytes)
	}
	w, _ := fs.Create("/part/file")
	w.Write(make([]byte, 25)) // 3 blocks
	w.Close()
	st = fs.NameNodeUsage()
	if st.Files != 1 || st.Blocks != 3 {
		t.Errorf("Files=%d Blocks=%d, want 1 and 3", st.Files, st.Blocks)
	}
}

func TestCounters(t *testing.T) {
	fs := New(4)
	w, _ := fs.Create("/f")
	w.WriteString("0123456789")
	w.Close()
	if fs.BytesWritten() != 10 {
		t.Errorf("BytesWritten = %d, want 10", fs.BytesWritten())
	}
	fs.ReadFile("/f")
	if fs.BytesRead() != 10 {
		t.Errorf("BytesRead = %d, want 10", fs.BytesRead())
	}
	fs.ResetCounters()
	if fs.BytesRead() != 0 || fs.BytesWritten() != 0 {
		t.Error("ResetCounters did not zero counters")
	}
}

func TestWriteFileOverwrites(t *testing.T) {
	fs := New(0)
	if err := fs.WriteFile("/x/y", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/x/y", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/x/y")
	if string(got) != "two" {
		t.Errorf("got %q, want two", got)
	}
}

// Property: for any payload and block size, a write followed by a full read
// round-trips, and the block count is ceil(len/blockSize).
func TestWriteReadRoundTripProperty(t *testing.T) {
	f := func(payload []byte, bsRaw uint8) bool {
		bs := int64(bsRaw%64) + 1
		fs := New(bs)
		w, err := fs.Create("/f")
		if err != nil {
			return false
		}
		if _, err := w.Write(payload); err != nil {
			return false
		}
		w.Close()
		got, err := fs.ReadFile("/f")
		if err != nil {
			return false
		}
		if !bytes.Equal(got, payload) {
			return false
		}
		fi, _ := fs.Stat("/f")
		wantBlocks := (len(payload) + int(bs) - 1) / int(bs)
		return fi.Blocks == wantBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadAt(buf, off) over random segments matches the source slice.
func TestReadAtSegmentsProperty(t *testing.T) {
	f := func(payload []byte, offRaw, lenRaw uint8) bool {
		fs := New(7)
		w, _ := fs.Create("/f")
		w.Write(payload)
		w.Close()
		if len(payload) == 0 {
			return true
		}
		off := int(offRaw) % len(payload)
		l := int(lenRaw)%(len(payload)-off) + 1
		r, _ := fs.Open("/f")
		buf := make([]byte, l)
		n, err := r.ReadAt(buf, int64(off))
		if err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(buf[:n], payload[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: splits tile the file exactly: contiguous, non-overlapping, and
// their lengths sum to the file size.
func TestSplitsTileProperty(t *testing.T) {
	f := func(size uint16, bsRaw uint8) bool {
		bs := int64(bsRaw%32) + 1
		fs := New(bs)
		w, _ := fs.Create("/f")
		w.Write(make([]byte, int(size)))
		w.Close()
		splits, err := fs.Splits("/f")
		if err != nil {
			return false
		}
		var pos, total int64
		for _, s := range splits {
			if s.Start != pos || s.Length <= 0 {
				return false
			}
			pos = s.End()
			total += s.Length
		}
		return total == int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs := New(64)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			name := "/c/f" + string(rune('0'+i))
			w, err := fs.Create(name)
			if err != nil {
				done <- err
				return
			}
			for j := 0; j < 100; j++ {
				if _, err := w.WriteString("row\n"); err != nil {
					done <- err
					return
				}
			}
			done <- w.Close()
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	files, _ := fs.ListFiles("/c")
	if len(files) != 8 {
		t.Fatalf("got %d files, want 8", len(files))
	}
	for _, fi := range files {
		if fi.Size != 400 {
			t.Errorf("%s size = %d, want 400", fi.Name, fi.Size)
		}
	}
}
