package storage

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// refTimeText is the time-package rendering the fixed-layout writer replaced.
func refTimeText(sec int64) string {
	t := time.Unix(sec, 0).UTC()
	if t.Hour() == 0 && t.Minute() == 0 && t.Second() == 0 {
		return t.Format(dateLayout)
	}
	return t.Format(dateTimeLayout)
}

// checkTimeKernels requires the digit writer to render sec exactly as the time
// package does and, inside the layouts' year range, the fast parser to read
// the rendering back.
func checkTimeKernels(t *testing.T, sec int64) {
	t.Helper()
	want := refTimeText(sec)
	v := TimeUnix(sec)
	if got := string(v.AppendText([]byte("x,"))); got != "x,"+want {
		t.Fatalf("AppendText(%d) = %q, want %q", sec, got, "x,"+want)
	}
	if got := v.String(); got != want {
		t.Fatalf("String(%d) = %q, want %q", sec, got, want)
	}
	if sec < minLayoutUnix || sec > maxLayoutUnix {
		return
	}
	if got, ok := parseTimeStr(want); !ok || got != sec {
		t.Fatalf("parseTimeStr(%q) = %d, %v, want %d", want, got, ok, sec)
	}
	if got, err := ParseValue(KindTime, want); err != nil || got != v {
		t.Fatalf("ParseValue(%q) = %+v, %v, want %+v", want, got, err, v)
	}
}

func TestTimeKernelsMatchTimePackage(t *testing.T) {
	rng := rand.New(rand.NewSource(20121201))
	// Every day of 1970-2100: midnight, a random second, the last second.
	first := time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	last := time.Date(2100, 12, 31, 0, 0, 0, 0, time.UTC).Unix()
	for day := first; day <= last; day += secondsPerDay {
		checkTimeKernels(t, day)
		checkTimeKernels(t, day+rng.Int63n(secondsPerDay))
		checkTimeKernels(t, day+secondsPerDay-1)
	}
	// Negative Unix values: random seconds of years 0-1969.
	for i := 0; i < 50000; i++ {
		checkTimeKernels(t, -1-rng.Int63n(-minLayoutUnix))
	}
	// Random seconds of the whole layout range, and its edges.
	for i := 0; i < 50000; i++ {
		checkTimeKernels(t, minLayoutUnix+rng.Int63n(maxLayoutUnix-minLayoutUnix+1))
	}
	for _, sec := range []int64{-1, 0, 1, minLayoutUnix, minLayoutUnix + 1, maxLayoutUnix - 1, maxLayoutUnix,
		time.Date(2000, 2, 29, 23, 59, 59, 0, time.UTC).Unix(), time.Date(1900, 3, 1, 0, 0, 0, 0, time.UTC).Unix(),
		time.Date(1600, 2, 29, 0, 0, 0, 0, time.UTC).Unix(), time.Date(4, 2, 29, 12, 0, 0, 0, time.UTC).Unix()} {
		checkTimeKernels(t, sec)
	}
	// The fallback range: years below 0 and above 9999 render through the
	// time package itself.
	for _, sec := range []int64{minLayoutUnix - 1, minLayoutUnix - secondsPerDay, maxLayoutUnix + 1, maxLayoutUnix + secondsPerDay,
		-1 << 40, 1 << 40, -1 << 55, 1 << 55} {
		checkTimeKernels(t, sec)
	}
	for i := 0; i < 2000; i++ {
		checkTimeKernels(t, maxLayoutUnix+1+rng.Int63n(1<<50))
		checkTimeKernels(t, minLayoutUnix-1-rng.Int63n(1<<50))
	}
}

// TestParseValueTimeMatchesParseTime: the fast path in front of ParseTime
// accepts and rejects exactly what ParseTime does, with the same value.
func TestParseValueTimeMatchesParseTime(t *testing.T) {
	inputs := []string{
		"2012-12-01", "2012-12-01 00:00:00", "2012-12-01 23:59:59", "0000-01-01", "9999-12-31 23:59:59",
		"2012-02-29", "2013-02-29", "2100-02-29", "2000-02-29", "2012-02-30", "2012-04-31", "2012-00-10", "2012-13-01",
		"2012-12-00", "2012-12-32", "2012-12-01 24:00:00", "2012-12-01 10:60:00", "2012-12-01 10:00:60",
		"2012-12-01T10:00:00", "2012-12-01 10:00:00.5", "2012-12-01 1:00:00", "2012-1-01", "12-12-01",
		"2012/12/01", "2012-12-0a", "+012-12-01", "2012-12-01 ", " 2012-12-01", "", "1354320000", "-86400",
		"20121201", "1e5", "abc", "2012-12-01 10:00", "2012-12-01 10:00:0x",
	}
	for _, in := range inputs {
		want, wantErr := ParseTime(in)
		got, err := ParseValue(KindTime, in)
		if (err == nil) != (wantErr == nil) || got != want {
			t.Errorf("ParseValue(KindTime, %q) = %+v, %v; ParseTime gives %+v, %v", in, got, err, want, wantErr)
		}
		if sec, ok := parseTimeStr(in); ok && (wantErr != nil || sec != want.I) {
			t.Errorf("parseTimeStr(%q) = %d, ParseTime gives %+v, %v", in, sec, want, wantErr)
		}
	}
}

// TestCheckTextRowTimestampBounds: the text format carries the years
// 0000-9999 only, so CheckTextRow admits a timestamp at either bound — and
// the row reads back — and refuses one a second past it, naming the cell. A
// timestamp of year 10000 used to load and then fail every decode of its
// column with `parse timestamp "10000-01-01"`.
func TestCheckTextRowTimestampBounds(t *testing.T) {
	schema := NewSchema(Column{Name: "id", Kind: KindInt64}, Column{Name: "ts", Kind: KindTime})
	for _, c := range []struct {
		sec int64
		ok  bool
	}{
		{minLayoutUnix - 1, false},
		{minLayoutUnix, true},
		{maxLayoutUnix, true},
		{maxLayoutUnix + 1, false},
	} {
		row := Row{Int64(1), TimeUnix(c.sec)}
		err := CheckTextRow(row)
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "column 2") || !strings.Contains(err.Error(), strconv.FormatInt(c.sec, 10)) {
				t.Errorf("CheckTextRow(ts=%d) = %v, want a refusal naming column 2 and the value", c.sec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("CheckTextRow(ts=%d) = %v, want nil", c.sec, err)
			continue
		}
		line := strings.TrimSuffix(string(AppendTextRow(nil, row)), "\n")
		if got, err := DecodeTextRow(schema, line); err != nil || got[1] != row[1] {
			t.Errorf("DecodeTextRow(%q) = %v, %v, want %v", line, got, err, row)
		}
	}
}

// TestTextWriterTimestampsAsRendered: TextWriter copies a timestamp cell
// from its column's last rendering while the seconds repeat, and the file
// holds AppendTextRow's bytes whatever the seconds do — repeat, alternate
// every row, turn midnight, leave years 0000–9999, or move to another
// column of the same row.
func TestTextWriterTimestampsAsRendered(t *testing.T) {
	day := int64(1354320000) // 2012-12-01 00:00:00 UTC
	secs := []int64{day, day, day + 1, day, day + 1, day + 1, day + 86400, -62167219201, -62167219201, day}
	var rows []Row
	var want []byte
	for i, s := range secs {
		row := Row{TimeUnix(s), Int64(int64(i)), TimeUnix(secs[len(secs)-1-i]), Float64(0.5)}
		rows = append(rows, row)
		want = AppendTextRow(want, row)
	}
	fs := dfs.New(1 << 20)
	if err := WriteTextRows(fs, "/t", rows); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/t")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("TextWriter wrote\n%s\nAppendTextRow renders\n%s", got, want)
	}
}
