package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// FuzzWALRecordDecode throws arbitrary bytes at the two recovery decoders:
// decodePayload (one record body) and scanRecords (the framed log stream a
// crashed process leaves behind). Neither may panic — recovery runs on
// whatever a torn write left on disk — and any payload that decodes must
// survive a re-encode/re-decode round trip byte-identically, since the
// encoder's output is the one form every log holds. (That a
// decode gives back exactly what was encoded is TestRecordRoundTripBitIdentical's.)
func FuzzWALRecordDecode(f *testing.F) {
	sample := Record{
		LSN:   42,
		Table: "ts",
		Rows: []storage.Row{
			{storage.Str("m-001"), storage.TimeUnix(1394064000), storage.Float64(3.25), storage.Int64(7)},
			{storage.Str("m-002"), storage.TimeUnix(1394064000), storage.Float64(-0.5), storage.Float64(math.Inf(1))},
			{storage.Str("m-003"), storage.TimeUnix(1394064000)},
		},
	}
	f.Add(encodePayload(nil, sample))
	f.Add(encodeFrame(nil, sample))
	f.Add(encodePayload(nil, Record{LSN: 1, Table: "empty"}))
	f.Add(encodePayload(nil, Record{LSN: 2, Table: "meterdata", Rows: meterRows(20)}))
	// DDL records: one whole, framed, and three that must not decode — a
	// zero-row record with empty text, text cut short, bytes after the text.
	ddl := encodePayload(nil, Record{LSN: 3, Table: "t", DDL: "CREATE TABLE t (userId bigint, v double) STORED AS RCFILE"})
	f.Add(ddl)
	f.Add(encodeFrame(nil, Record{LSN: 4, Table: "t", DDL: "DROP TABLE t"}))
	f.Add(append(encodePayload(nil, Record{LSN: 5, Table: "t"}), 0))
	f.Add(ddl[:len(ddl)-4])
	f.Add(append(ddl, 'x'))
	// Packed columns at widths 1, 7, 8, 63 and 64 and a decimal one at
	// e = 18.
	for _, s := range packedSeeds {
		f.Add(encodePayload(nil, s.rec))
	}
	// A runs column as written and the spellings of it the decoder refuses.
	for _, s := range runsSeeds {
		f.Add(s.p)
	}
	// A frame whose header claims far more payload than follows (torn tail).
	torn := encodeFrame(nil, sample)
	f.Add(torn[:len(torn)-5])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodePayload(data); err == nil {
			p := encodePayload(nil, rec)
			rec2, err := decodePayload(p)
			if err != nil {
				t.Fatalf("re-decode of canonical encoding failed: %v", err)
			}
			if p2 := encodePayload(nil, rec2); !bytes.Equal(p, p2) {
				t.Fatalf("re-encode not canonical:\n first %x\nsecond %x", p, p2)
			}
		}
		// Framed-stream recovery over the same bytes: must never panic, and
		// may fail only on a frame that passes its checksum and does not
		// decode (a torn frame ends the log quietly). Every record it
		// salvages must be re-encodable.
		recs, off, err := scanRecords(bytes.NewReader(data))
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("scanRecords good-end %d outside input of %d bytes", off, len(data))
		}
		if err != nil {
			frame := data[off:]
			if len(frame) < frameHeaderLen {
				t.Fatalf("scanRecords error %v with no frame at byte %d", err, off)
			}
			n := int64(binary.LittleEndian.Uint32(frame))
			if n > int64(len(frame)-frameHeaderLen) || crc32.ChecksumIEEE(frame[frameHeaderLen:frameHeaderLen+n]) != binary.LittleEndian.Uint32(frame[4:]) {
				t.Fatalf("scanRecords error %v on a torn frame at byte %d", err, off)
			}
			if _, derr := decodePayload(frame[frameHeaderLen : frameHeaderLen+n]); derr == nil {
				t.Fatalf("scanRecords error %v on a frame that decodes", err)
			}
		}
		for _, rec := range recs {
			if _, err := decodePayload(encodePayload(nil, rec)); err != nil {
				t.Fatalf("salvaged record does not re-encode: %v", err)
			}
		}
	})
}
