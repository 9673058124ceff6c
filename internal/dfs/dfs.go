// Package dfs models the HDFS layer that the DGFIndex paper builds on.
//
// It provides exactly what the paper's pipeline needs from HDFS:
//
//   - a hierarchical namespace with directories and append-only files,
//   - files stored as fixed-size blocks (64 MB default, configurable; the
//     experiments scale it down together with the datasets),
//   - input split generation (one split per block, like Hadoop's FileSplit),
//   - byte-range reads (positional reads for slice skipping),
//   - NameNode metadata-memory accounting: every directory, file and block
//     costs about 150 bytes of NameNode heap (the figure the paper cites when
//     it argues multidimensional partitioning overloads the NameNode).
//
// The implementation is in-process and thread-safe. Block payloads live in
// memory; at the scales the benchmarks use (hundreds of MB) this is both the
// fastest and the simplest faithful substitute for a real HDFS cluster.
//
// Files are write-once, as in HDFS. Closing a file's writer seals the file:
// Write refuses a sealed file, and WriteFile replaces the node rather than
// rewriting it. A shard's replicas are executors over one filesystem, as
// Hive servers are over one HDFS, so every file is held once.
package dfs

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultBlockSize is the HDFS default block size used by the paper (64 MB).
const DefaultBlockSize = 64 << 20

// NameNodeBytesPerObject is the approximate NameNode heap cost of one
// namespace object (directory, file or block), per the Cloudera figure the
// paper cites in Section 2.2.
const NameNodeBytesPerObject = 150

// Common errors returned by the filesystem.
var (
	ErrNotExist = errors.New("dfs: no such file or directory")
	ErrExist    = errors.New("dfs: file already exists")
	ErrIsDir    = errors.New("dfs: is a directory")
	ErrNotDir   = errors.New("dfs: not a directory")
	ErrNotEmpty = errors.New("dfs: directory not empty")
)

// FS is an in-process model of an HDFS namespace plus datanode storage.
type FS struct {
	mu        sync.RWMutex
	root      *node
	blockSize int64

	bytesWritten atomic.Int64
	bytesRead    atomic.Int64

	parseCache sync.Map // path -> *parseEntry, see CachedParse
}

// parseEntry is one CachedParse result, valid while the file keeps the size
// it had when parsed.
type parseEntry struct {
	size  int64
	value any
}

type node struct {
	name     string
	dir      bool
	children map[string]*node // directories only
	blocks   [][]byte         // files only
	size     int64            // files only
	sealed   bool             // files only: the writer has closed
}

// New creates an empty filesystem with the given block size. A non-positive
// blockSize selects DefaultBlockSize.
func New(blockSize int64) *FS {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &FS{
		root:      &node{name: "/", dir: true, children: map[string]*node{}},
		blockSize: blockSize,
	}
}

// BlockSize returns the filesystem block size in bytes.
func (fs *FS) BlockSize() int64 { return fs.blockSize }

// BytesWritten returns the total payload bytes written since creation.
func (fs *FS) BytesWritten() int64 { return fs.bytesWritten.Load() }

// BytesRead returns the total payload bytes read since creation.
func (fs *FS) BytesRead() int64 { return fs.bytesRead.Load() }

// ResetCounters zeroes the read/write byte counters. Experiments call this
// between phases to attribute I/O.
func (fs *FS) ResetCounters() {
	fs.bytesWritten.Store(0)
	fs.bytesRead.Store(0)
}

// CachedParse memoises the parsed form of a file, so metadata consulted on
// every query plan — column statistics and the row groups they locate — is
// decoded once instead of per query. The cache key is the path; an entry
// is valid while the file keeps the size it had when parsed — appends (the
// only in-place mutation this DFS offers) grow the size, and Remove and
// RemoveAll evict the affected entries outright. A missing file caches too
// (size -1), so repeated probes for an absent side file cost one Stat.
// Callers must treat the returned value as immutable — it is shared with
// every other caller.
func (fs *FS) CachedParse(p string, parse func() (any, error)) (any, error) {
	key := cleanAbs(p)
	size := int64(-1)
	if fi, err := fs.Stat(key); err == nil {
		size = fi.Size
	}
	if v, ok := fs.parseCache.Load(key); ok {
		if e := v.(*parseEntry); e.size == size {
			return e.value, nil
		}
	}
	val, err := parse()
	if err != nil {
		return nil, err // parse failures are not cached: the next call retries
	}
	fs.parseCache.Store(key, &parseEntry{size: size, value: val})
	return val, nil
}

// invalidateParse drops the CachedParse entry for p (no-op when absent).
func (fs *FS) invalidateParse(p string) {
	fs.parseCache.Delete(cleanAbs(p))
}

// invalidateParseTree drops every CachedParse entry at or under p.
func (fs *FS) invalidateParseTree(p string) {
	prefix := cleanAbs(p)
	fs.parseCache.Range(func(k, _ any) bool {
		key := k.(string)
		if key == prefix || strings.HasPrefix(key, prefix+"/") || prefix == "/" {
			fs.parseCache.Delete(key)
		}
		return true
	})
}

// cleanAbs returns p as a clean absolute path, without allocating when it
// already is one.
func cleanAbs(p string) string {
	if strings.HasPrefix(p, "/") {
		return path.Clean(p)
	}
	return path.Clean("/" + p)
}

func splitPath(p string) []string {
	p = cleanAbs(p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// lookup walks to the node at p. Caller must hold fs.mu.
func (fs *FS) lookup(p string) (*node, error) {
	cur := fs.root
	for rest := cleanAbs(p)[1:]; rest != ""; {
		part := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if !cur.dir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		cur = next
	}
	return cur, nil
}

// MkdirAll creates directory p along with any missing parents.
func (fs *FS) MkdirAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.root
	for _, part := range splitPath(p) {
		next, ok := cur.children[part]
		if !ok {
			next = &node{name: part, dir: true, children: map[string]*node{}}
			cur.children[part] = next
		} else if !next.dir {
			return fmt.Errorf("%w: %s", ErrNotDir, p)
		}
		cur = next
	}
	return nil
}

// Create creates a new file at p (parents must exist or are created) and
// returns a writer. The file must not already exist.
func (fs *FS) Create(p string) (*FileWriter, error) {
	dir, base := path.Split(cleanAbs(p))
	if base == "" {
		return nil, fmt.Errorf("%w: empty file name", ErrNotExist)
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, err := fs.lookup(dir)
	if err != nil {
		return nil, err
	}
	if _, ok := parent.children[base]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, p)
	}
	f := &node{name: base}
	parent.children[base] = f
	return &FileWriter{fs: fs, f: f, path: cleanAbs(p)}, nil
}

// FileInfo describes a namespace entry.
type FileInfo struct {
	Path   string
	Name   string
	Size   int64
	IsDir  bool
	Blocks int
}

// Stat returns metadata for the entry at p.
func (fs *FS) Stat(p string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{
		Path:   cleanAbs(p),
		Name:   n.name,
		Size:   n.size,
		IsDir:  n.dir,
		Blocks: len(n.blocks),
	}, nil
}

// Exists reports whether an entry exists at p.
func (fs *FS) Exists(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, err := fs.lookup(p)
	return err == nil
}

// List returns the entries of directory p sorted by name.
func (fs *FS) List(p string) ([]FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	out := make([]FileInfo, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, FileInfo{
			Path:   path.Join("/", p, c.name),
			Name:   c.name,
			Size:   c.size,
			IsDir:  c.dir,
			Blocks: len(c.blocks),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ListFiles returns the non-directory entries directly under p, sorted.
func (fs *FS) ListFiles(p string) ([]FileInfo, error) {
	all, err := fs.List(p)
	if err != nil {
		return nil, err
	}
	files := all[:0]
	for _, fi := range all {
		if !fi.IsDir {
			files = append(files, fi)
		}
	}
	return files, nil
}

// Remove deletes the file or empty directory at p.
func (fs *FS) Remove(p string) error {
	dir, base := path.Split(cleanAbs(p))
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, err := fs.lookup(dir)
	if err != nil {
		return err
	}
	n, ok := parent.children[base]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if n.dir && len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	delete(parent.children, base)
	fs.invalidateParse(p)
	return nil
}

// RemoveAll deletes the subtree rooted at p. Removing a missing path is not
// an error, matching os.RemoveAll.
func (fs *FS) RemoveAll(p string) error {
	dir, base := path.Split(cleanAbs(p))
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if base == "" { // removing "/" clears the namespace
		fs.root.children = map[string]*node{}
		fs.invalidateParseTree("/")
		return nil
	}
	parent, err := fs.lookup(dir)
	if err != nil {
		return nil
	}
	delete(parent.children, base)
	fs.invalidateParseTree(p)
	return nil
}

// NameNodeStats summarises NameNode metadata usage.
type NameNodeStats struct {
	Dirs, Files, Blocks int
	// MemoryBytes is the modelled NameNode heap consumption
	// (150 bytes per namespace object, per the paper's citation).
	MemoryBytes int64
}

// NameNodeUsage walks the namespace and returns metadata-memory accounting.
func (fs *FS) NameNodeUsage() NameNodeStats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var st NameNodeStats
	var walk func(n *node)
	walk = func(n *node) {
		if n.dir {
			st.Dirs++
			for _, c := range n.children {
				walk(c)
			}
		} else {
			st.Files++
			st.Blocks += len(n.blocks)
		}
	}
	walk(fs.root)
	st.MemoryBytes = int64(st.Dirs+st.Files+st.Blocks) * NameNodeBytesPerObject
	return st
}

// FileWriter appends data to a file, splitting it into blocks.
type FileWriter struct {
	fs   *FS
	f    *node
	path string
}

// Path returns the file's absolute path.
func (w *FileWriter) Path() string { return w.path }

// Size returns the number of bytes written so far (the current file offset).
func (w *FileWriter) Size() int64 {
	w.fs.mu.RLock()
	defer w.fs.mu.RUnlock()
	return w.f.size
}

// Write appends p to the file.
func (w *FileWriter) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.f.sealed {
		return 0, errors.New("dfs: write to closed file")
	}
	bs := w.fs.blockSize
	remaining := p
	for len(remaining) > 0 {
		if n := len(w.f.blocks); n == 0 || int64(len(w.f.blocks[n-1])) >= bs {
			w.f.blocks = append(w.f.blocks, make([]byte, 0, min(bs, int64(len(remaining)))))
		}
		last := len(w.f.blocks) - 1
		room := bs - int64(len(w.f.blocks[last]))
		take := int64(len(remaining))
		if take > room {
			take = room
		}
		w.f.blocks[last] = append(w.f.blocks[last], remaining[:take]...)
		remaining = remaining[take:]
		w.f.size += take
	}
	w.fs.bytesWritten.Add(int64(len(p)))
	return len(p), nil
}

// WriteString appends s to the file. It converts s to bytes, which copies
// it, before Write copies those into the file's blocks.
func (w *FileWriter) WriteString(s string) (int, error) {
	return w.Write([]byte(s))
}

// Close seals the file. Further writes fail. A block Write grew by append
// keeps its spare capacity only while the file can still grow: Close copies
// it to its length, so a sealed file holds its bytes and no more.
func (w *FileWriter) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.f.sealed {
		return nil
	}
	w.f.sealed = true
	for i, b := range w.f.blocks {
		if cap(b) > len(b) {
			w.f.blocks[i] = append(make([]byte, 0, len(b)), b...)
		}
	}
	return nil
}

// Open returns a reader positioned at the start of file p.
func (fs *FS) Open(p string) (*FileReader, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	return &FileReader{fs: fs, f: n, path: cleanAbs(p)}, nil
}

// ReadFile reads the whole file at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	r, err := fs.Open(p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, r.Size())
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// WriteFile creates file p with the given contents, replacing any existing
// file.
func (fs *FS) WriteFile(p string, data []byte) error {
	if fs.Exists(p) {
		if err := fs.Remove(p); err != nil {
			return err
		}
	}
	w, err := fs.Create(p)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// FileReader supports sequential and positional reads of one file.
type FileReader struct {
	fs   *FS
	f    *node
	path string
	pos  int64
}

// Path returns the file's absolute path.
func (r *FileReader) Path() string { return r.path }

// FS returns the filesystem the file is read from.
func (r *FileReader) FS() *FS { return r.fs }

// Size returns the file size in bytes.
func (r *FileReader) Size() int64 {
	r.fs.mu.RLock()
	defer r.fs.mu.RUnlock()
	return r.f.size
}

// ReadAt implements io.ReaderAt over the block list.
func (r *FileReader) ReadAt(p []byte, off int64) (int, error) {
	r.fs.mu.RLock()
	defer r.fs.mu.RUnlock()
	if off < 0 {
		return 0, errors.New("dfs: negative offset")
	}
	if off >= r.f.size {
		return 0, io.EOF
	}
	bs := r.fs.blockSize
	n := 0
	for n < len(p) && off < r.f.size {
		bi := off / bs
		bo := off % bs
		block := r.f.blocks[bi]
		c := copy(p[n:], block[bo:])
		n += c
		off += int64(c)
	}
	r.fs.bytesRead.Add(int64(n))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Read implements io.Reader.
func (r *FileReader) Read(p []byte) (int, error) {
	n, err := r.ReadAt(p, r.pos)
	r.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (r *FileReader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.pos + offset
	case io.SeekEnd:
		abs = r.Size() + offset
	default:
		return 0, errors.New("dfs: invalid whence")
	}
	if abs < 0 {
		return 0, errors.New("dfs: negative position")
	}
	r.pos = abs
	return abs, nil
}

// Split is a byte range of one file processed by one map task, equivalent to
// Hadoop's FileSplit. Splits align with block boundaries.
type Split struct {
	Path   string
	Start  int64
	Length int64
}

// End returns the exclusive end offset of the split.
func (s Split) End() int64 { return s.Start + s.Length }

// String formats the split like Hadoop logs do.
func (s Split) String() string {
	return fmt.Sprintf("%s:%d+%d", s.Path, s.Start, s.Length)
}

// Splits returns one split per block of file p.
func (fs *FS) Splits(p string) ([]Split, error) {
	fi, err := fs.Stat(p)
	if err != nil {
		return nil, err
	}
	if fi.IsDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	var out []Split
	for off := int64(0); off < fi.Size; off += fs.blockSize {
		length := fs.blockSize
		if off+length > fi.Size {
			length = fi.Size - off
		}
		out = append(out, Split{Path: fi.Path, Start: off, Length: length})
	}
	return out, nil
}

// DirSplits returns the splits of every regular file directly under dir,
// ordered by file name then offset. This is how a Hive table scan enumerates
// its input.
func (fs *FS) DirSplits(dir string) ([]Split, error) {
	files, err := fs.ListFiles(dir)
	if err != nil {
		return nil, err
	}
	var out []Split
	for _, fi := range files {
		s, err := fs.Splits(fi.Path)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out, nil
}
