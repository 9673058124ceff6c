package dfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// writeSealed writes data to a new file p of fs and closes it.
func writeSealed(t *testing.T, fs *dfs.FS, p string, data []byte) {
	t.Helper()
	w, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// install copies file p of src into dst through Sealed and Install.
func install(t *testing.T, src, dst *dfs.FS, p string) {
	t.Helper()
	f, err := src.Sealed(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Install(p, f); err != nil {
		t.Fatal(err)
	}
}

// mustRead returns the bytes of file p of fs.
func mustRead(t *testing.T, fs *dfs.FS, p string) []byte {
	t.Helper()
	data, err := fs.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// payload is n bytes that differ from block to block.
func payload(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i*7)
	}
	return out
}

// sharesPayloads reports whether file p of a and file p of b hold the same
// payloads in distinct block lists.
func sharesPayloads(t *testing.T, a, b *dfs.FS, p string) bool {
	t.Helper()
	ha, hb := dfs.BlockHeader(a, p), dfs.BlockHeader(b, p)
	if len(ha) == 0 || len(ha) != len(hb) {
		return false
	}
	if &ha[0] == &hb[0] {
		t.Fatalf("%s: the two files share one block list", p)
	}
	for i := range ha {
		if &ha[i][0] != &hb[i][0] {
			return false
		}
	}
	return true
}

// TestInstallSharesPayloads: a file installed from a sealed one reads
// byte-identical, holds the same payloads in its own block list, and
// answers Stat, List, Splits, NameNodeUsage, BytesWritten and CachedParse
// as the same file written there would.
func TestInstallSharesPayloads(t *testing.T) {
	const p = "/warehouse/t/part-00000"
	data := payload(29, 1)
	pub, sib, written := dfs.New(8), dfs.New(8), dfs.New(8)
	writeSealed(t, pub, p, data)
	writeSealed(t, written, p, data)
	install(t, pub, sib, p)

	if got := mustRead(t, sib, p); !bytes.Equal(got, data) {
		t.Fatalf("installed file reads %v, want %v", got, data)
	}
	if !sharesPayloads(t, pub, sib, p) {
		t.Error("the installed file holds a copy of the payloads")
	}
	a, _ := pub.Sealed(p)
	b, _ := sib.Sealed(p)
	if !a.Shares(b) {
		t.Error("the two files' sealed values do not share their payloads")
	}

	ws, _ := written.Stat(p)
	if is, err := sib.Stat(p); err != nil || is != ws {
		t.Errorf("Stat = %+v (%v), want %+v", is, err, ws)
	}
	wl, _ := written.List("/warehouse/t")
	if il, err := sib.List("/warehouse/t"); err != nil || fmt.Sprint(il) != fmt.Sprint(wl) {
		t.Errorf("List = %+v (%v), want %+v", il, err, wl)
	}
	wsp, _ := written.Splits(p)
	if isp, err := sib.Splits(p); err != nil || fmt.Sprint(isp) != fmt.Sprint(wsp) {
		t.Errorf("Splits = %v (%v), want %v", isp, err, wsp)
	}
	if iu, wu := sib.NameNodeUsage(), written.NameNodeUsage(); iu != wu {
		t.Errorf("NameNodeUsage = %+v, want %+v", iu, wu)
	}
	if got, want := sib.BytesWritten(), written.BytesWritten(); got != want {
		t.Errorf("BytesWritten = %d, want %d", got, want)
	}
	parses := 0
	parse := func() (any, error) { parses++; return parses, nil }
	for i := 0; i < 2; i++ {
		if v, err := sib.CachedParse(p, parse); err != nil || v != 1 {
			t.Fatalf("CachedParse = %v, %v", v, err)
		}
	}
	if err := sib.Install(p, a); !errors.Is(err, dfs.ErrExist) {
		t.Errorf("Install over an existing file = %v, want ErrExist", err)
	}
	w, err := sib.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(nil); err != nil {
		t.Fatal(err)
	}
	if err := sib.Install("/x/f", a); !errors.Is(err, dfs.ErrNotDir) {
		t.Errorf("Install under a file = %v, want ErrNotDir", err)
	}
}

// TestSealedBytesOutliveEitherSide: removing, overwriting or re-creating the
// file on either filesystem leaves the other's bytes as they were.
func TestSealedBytesOutliveEitherSide(t *testing.T) {
	const p = "/t/part-00000"
	data, other := payload(40, 3), payload(40, 100)
	mutations := map[string]func(*testing.T, *dfs.FS){
		"RemoveAll": func(t *testing.T, fs *dfs.FS) {
			if err := fs.RemoveAll("/t"); err != nil {
				t.Fatal(err)
			}
		},
		"WriteFile": func(t *testing.T, fs *dfs.FS) {
			if err := fs.WriteFile(p, other); err != nil {
				t.Fatal(err)
			}
		},
		"Create+Write": func(t *testing.T, fs *dfs.FS) {
			if err := fs.Remove(p); err != nil {
				t.Fatal(err)
			}
			writeSealed(t, fs, p, other)
		},
	}
	for name, mutate := range mutations {
		for _, side := range []string{"publisher", "sibling"} {
			t.Run(name+"/"+side, func(t *testing.T) {
				pub, sib := dfs.New(16), dfs.New(16)
				writeSealed(t, pub, p, data)
				install(t, pub, sib, p)
				changed, kept := pub, sib
				if side == "sibling" {
					changed, kept = sib, pub
				}
				mutate(t, changed)
				if got := mustRead(t, kept, p); !bytes.Equal(got, data) {
					t.Errorf("the other file reads %v, want %v", got, data)
				}
				if changed.Exists(p) {
					if got := mustRead(t, changed, p); !bytes.Equal(got, other) {
						t.Errorf("the changed file reads %v, want %v", got, other)
					}
				}
			})
		}
	}
}

// TestSealedRefusesOpenFile: an open file cannot be handed out, nor can a
// directory or a missing path; the closed file can.
func TestSealedRefusesOpenFile(t *testing.T) {
	fs := dfs.New(8)
	w, err := fs.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload(10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Sealed("/d/f"); !errors.Is(err, dfs.ErrNotSealed) {
		t.Errorf("Sealed(open file) = %v, want ErrNotSealed", err)
	}
	if _, err := fs.Sealed("/d"); !errors.Is(err, dfs.ErrIsDir) {
		t.Errorf("Sealed(dir) = %v, want ErrIsDir", err)
	}
	if _, err := fs.Sealed("/d/missing"); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("Sealed(missing) = %v, want ErrNotExist", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Sealed("/d/f"); err != nil {
		t.Errorf("Sealed(closed file) = %v", err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("Write to a sealed file succeeded")
	}
}

// TestInstallCopiesAcrossBlockSizes: a filesystem with another block size
// gets its own bytes, cut at its own block size.
func TestInstallCopiesAcrossBlockSizes(t *testing.T) {
	const p = "/t/f"
	data := payload(29, 5)
	pub, sib, written := dfs.New(8), dfs.New(5), dfs.New(5)
	writeSealed(t, pub, p, data)
	writeSealed(t, written, p, data)
	install(t, pub, sib, p)
	if got := mustRead(t, sib, p); !bytes.Equal(got, data) {
		t.Fatalf("installed file reads %v, want %v", got, data)
	}
	ws, _ := written.Stat(p)
	if is, _ := sib.Stat(p); is != ws {
		t.Errorf("Stat = %+v, want %+v", is, ws)
	}
	wsp, _ := written.Splits(p)
	if isp, _ := sib.Splits(p); fmt.Sprint(isp) != fmt.Sprint(wsp) {
		t.Errorf("Splits = %v, want %v", isp, wsp)
	}
	for i, b := range dfs.BlockHeader(sib, p) {
		if cap(b) != len(b) {
			t.Errorf("block %d: cap %d, len %d", i, cap(b), len(b))
		}
	}
	// Scribble over the publisher's payloads: the sibling's bytes must not
	// move, as they would if it held those payloads.
	for _, b := range dfs.BlockHeader(pub, p) {
		for i := range b {
			b[i] = 0xff
		}
	}
	if got := mustRead(t, sib, p); !bytes.Equal(got, data) {
		t.Error("the sibling's bytes live in the publisher's payloads")
	}
}

// TestInstallNeverHalfMade: while files are installed and removed, readers
// on other goroutines that find one see all of it — size, blocks and bytes.
// Run under -race.
func TestInstallNeverHalfMade(t *testing.T) {
	data := payload(100, 9)
	pub, sib := dfs.New(16), dfs.New(16)
	writeSealed(t, pub, "/src", data)
	f, err := pub.Sealed("/src")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := sib.Install(fmt.Sprintf("/d/f%d", i%4), f); err != nil {
				errs <- err
				return
			}
			if i%4 == 3 {
				if err := sib.RemoveAll("/d"); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	check := func(fi dfs.FileInfo) error {
		if fi.Size != int64(len(data)) || fi.Blocks != 7 {
			return fmt.Errorf("%s seen with size %d and %d blocks", fi.Path, fi.Size, fi.Blocks)
		}
		return nil
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fis, _ := sib.List("/d")
				for _, fi := range fis {
					if err := check(fi); err != nil {
						errs <- err
						return
					}
				}
				p := fmt.Sprintf("/d/f%d", i%4)
				if fi, err := sib.Stat(p); err == nil {
					if err := check(fi); err != nil {
						errs <- err
						return
					}
				}
				if rd, err := sib.Open(p); err == nil {
					buf := make([]byte, len(data))
					if n, _ := rd.ReadAt(buf, 0); n != len(data) || !bytes.Equal(buf, data) {
						errs <- fmt.Errorf("%s read %d bytes", p, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
