package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// Policy selects when appends are flushed to stable storage.
type Policy uint8

const (
	// PolicyInterval fsyncs on a background ticker, every 25ms.
	// A crash can lose at most the last interval's acks. The default.
	PolicyInterval Policy = iota
	// PolicyAlways fsyncs every append before the load is acknowledged.
	PolicyAlways
	// PolicyOff never fsyncs; durability is whatever the OS page cache
	// survives. Useful for tests and throwaway fleets.
	PolicyOff
)

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyOff:
		return "off"
	default:
		return "interval"
	}
}

// ParsePolicy maps the user-facing -fsync / Config.FsyncPolicy strings.
// The empty string selects the default (interval).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "interval":
		return PolicyInterval, nil
	case "always":
		return PolicyAlways, nil
	case "off", "none":
		return PolicyOff, nil
	}
	return PolicyInterval, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// Log is one shard's append-only record file. Appends are serialised by
// an internal mutex; reads of historical records (ScanFrom) open their own
// descriptor so they never disturb the append offset.
//
// A failed write or fsync is sticky: it may have left a partial frame at the
// tail, and a record appended behind that frame would be cut off with it
// when OpenLog truncates the torn tail. So once one fails, every later
// Append returns that error until the log is reopened.
//
// A Log opened with an empty path has no file: it keeps the sequence (Append
// advances LastLSN) and stores nothing, so there is nothing to sync, scan or
// close. An Engine opened without a directory runs over such logs.
type Log struct {
	path string // "" for a log with no file

	mu      sync.Mutex
	f       *os.File
	lastLSN uint64 // highest LSN ever appended (0 when empty)
	dirty   bool   // bytes written since the last fsync
	failed  error  // the write or fsync failure that closed the log to appends
	buf     []byte // reusable frame scratch
}

// OpenLog opens (creating if needed) the log at path, validates every
// record, truncates any torn tail, and returns the log positioned for
// appends plus every intact record in LSN order. An empty path opens a log
// with no file. A checksummed frame that does not decode fails the open and
// leaves the file as it was (see scanFrom).
func OpenLog(path string) (*Log, []Record, error) {
	if path == "" {
		return &Log{}, nil, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create log dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	recs, goodEnd, err := scanRecords(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > goodEnd {
		// Torn tail from a crash mid-append: drop it so the next append
		// starts a clean frame.
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek to log end: %w", err)
	}
	l := &Log{path: path, f: f}
	if n := len(recs); n > 0 {
		l.lastLSN = recs[n-1].LSN
	}
	return l, recs, nil
}

// scanRecords reads every record of a log stream: scanFrom(r, 0).
func scanRecords(r io.Reader) ([]Record, int64, error) { return scanFrom(r, 0) }

// scanFrom reads the frames of a log stream from its start and decodes
// those whose LSN is at least from. It stops at the first frame that is
// short, oversized, or fails its checksum — a torn write — and returns the
// decoded records and the byte offset just past the last good frame. A
// frame that passes its checksum but does not decode is a format mismatch
// or a bug, not a torn write: that is an error naming the frame's offset
// and LSN, so recovery never cuts acknowledged records off behind it.
func scanFrom(r io.Reader, from uint64) ([]Record, int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var recs []Record
	var off int64
	header := make([]byte, frameHeaderLen)
	var payload []byte
	for {
		if _, err := io.ReadFull(br, header); err != nil {
			return recs, off, nil // clean EOF or torn header — stop here
		}
		n := binary.LittleEndian.Uint32(header)
		sum := binary.LittleEndian.Uint32(header[4:])
		if n == 0 || n > maxPayloadLen {
			return recs, off, nil
		}
		var ok bool
		if payload, ok = readPayload(br, payload, n); !ok {
			return recs, off, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, nil // corrupt frame
		}
		if len(payload) < 8 || binary.LittleEndian.Uint64(payload) >= from {
			rec, err := decodePayload(payload)
			if err != nil {
				return recs, off, fmt.Errorf("record at byte %d (lsn %d) passes its checksum but does not decode: %w", off, rec.LSN, err)
			}
			recs = append(recs, rec)
		}
		off += frameHeaderLen + int64(n)
	}
}

// readPayload reads exactly n bytes into buf (reusing its capacity),
// growing in bounded chunks: a torn header that happens to decode as a
// near-maxPayloadLen length then costs only the bytes actually present in
// the file, not a gigabyte-sized up-front allocation.
func readPayload(r io.Reader, buf []byte, n uint32) ([]byte, bool) {
	const chunk = 1 << 20
	buf = buf[:0]
	for remaining := int64(n); remaining > 0; {
		step := remaining
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf, false
		}
		remaining -= step
	}
	return buf, true
}

// Append writes rec at the log tail. With PolicyAlways the record is
// fsynced before Append returns; other policies only buffer in the OS. A
// failed Append leaves the log refusing every later one (see Log).
func (l *Log) Append(rec Record, p Policy) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.path == "" {
		l.lastLSN = rec.LSN
		return nil
	}
	if l.failed != nil {
		return fmt.Errorf("wal: append lsn %d: log refuses appends until reopened: %w", rec.LSN, l.failed)
	}
	l.buf = encodeFrame(l.buf[:0], rec)
	if _, err := l.f.Write(l.buf); err != nil {
		l.failed = fmt.Errorf("append lsn %d: %w", rec.LSN, err)
		return fmt.Errorf("wal: %w", l.failed)
	}
	if p == PolicyAlways {
		if err := l.f.Sync(); err != nil {
			l.failed = fmt.Errorf("fsync lsn %d: %w", rec.LSN, err)
			return fmt.Errorf("wal: %w", l.failed)
		}
	} else {
		l.dirty = true
	}
	l.lastLSN = rec.LSN
	return nil
}

// Sync flushes buffered appends to stable storage if any are pending.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty || l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("fsync: %w", err)
		return fmt.Errorf("wal: %w", l.failed)
	}
	l.dirty = false
	return nil
}

// LastLSN reports the highest LSN appended to (or recovered from) the log.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// ScanFrom re-reads the log from disk and returns every intact record with
// LSN > after; frames at or below it are checksummed but not decoded. It
// opens a private descriptor, so concurrent appends to the same *Log are
// safe (callers serialise against commits at a higher level to get a stable
// upper bound).
func (l *Log) ScanFrom(after uint64) ([]Record, error) {
	if l.path == "" || after == math.MaxUint64 {
		return nil, nil
	}
	f, err := os.Open(l.path)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen for replay: %w", err)
	}
	defer f.Close()
	recs, _, err := scanFrom(f, after+1)
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", l.path, err)
	}
	return recs, nil
}

// Close fsyncs pending bytes (unless the policy is off) and releases the
// descriptor.
func (l *Log) Close(p Policy) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.dirty && p != PolicyOff {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
