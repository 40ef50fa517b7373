package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// freeText holds track and mark names that need CSV quoting, one per
// reason encoding/csv's Writer quotes a field, plus two that need none.
// ("\r\n" inside a name is left out: encoding/csv's Reader reads it
// back as "\n".)
var freeText = []string{
	"a,b", `say "hi"`, " lead", "\u00a0nbsp", "two\nlines", "cr\rhere", `\.`, `\.x`, "plain",
}

// quotingRecorder uses every freeText name as a disk track and as a
// mark name.
func quotingRecorder() *Recorder {
	r := New(0)
	r.Track(CPUTrack, "cpu")
	for i, name := range freeText {
		at := sim.Time(i)
		r.Track(1+i, name)
		r.DiskPhase(1+i, PhaseSeek, at, at+0.5)
		r.QueueSample(1+i, at, i)
		r.Mark(1+i, name, at)
	}
	return r
}

// TestWriteCSVQuotingParity: free-text fields come out as the bytes
// encoding/csv's Writer produces for the same rows, and read back to
// the same names.
func TestWriteCSVQuotingParity(t *testing.T) {
	r := quotingRecorder()
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	rows := [][]string{{"kind", "track", "name", "start_ms", "end_ms", "value"}}
	for i, name := range freeText {
		at, end := strconv.Itoa(i), strconv.Itoa(i)+".5"
		rows = append(rows,
			[]string{"disk", name, "seek", at, end, ""},
			[]string{"queue", name, "depth", at, at, strconv.Itoa(i)},
			[]string{"mark", name, name, at, at, ""})
	}
	if err := cw.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := r.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteCSV differs from csv.Writer:\ngot:\n%q\nwant:\n%q", got.String(), want.String())
	}

	back, err := ReadCSV(&got)
	if err != nil {
		t.Fatal(err)
	}
	marks := back.Marks()
	if len(marks) != len(freeText) {
		t.Fatalf("read back %d marks, want %d", len(marks), len(freeText))
	}
	for i, name := range freeText {
		if marks[i].Name != name {
			t.Errorf("mark %d: name %q, want %q", i, marks[i].Name, name)
		}
		if got := back.TrackName(marks[i].Track); got != name {
			t.Errorf("mark %d: track %q, want %q", i, got, name)
		}
	}
	var again bytes.Buffer
	if err := back.WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != want.String() {
		t.Fatalf("write→read→write changed the bytes:\n%q", again.String())
	}
}

// TestWriteCSVTimeFormat: times are strconv's shortest 'g' form, and
// the formatted-time memo keeps -0 and 0 apart.
func TestWriteCSVTimeFormat(t *testing.T) {
	negZero := sim.Time(math.Copysign(0, -1))
	times := []sim.Time{0, negZero, 0, 1e6, 5e-05, negZero, 0.30000000000000004, 1e21, 239417.68029664602}
	r := New(0)
	for i, at := range times {
		r.CacheSample(at, i)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "-0", "0", "1e+06", "5e-05", "-0", "0.30000000000000004", "1e+21", "239417.68029664602"}
	// Cache rows sort by start; ties keep record order.
	order := []int{0, 1, 2, 5, 4, 6, 8, 3, 7}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")[1:]
	if len(lines) != len(order) {
		t.Fatalf("got %d rows, want %d:\n%s", len(lines), len(order), buf.String())
	}
	for row, i := range order {
		w := "cache,cache,occupancy," + want[i] + "," + want[i] + "," + strconv.Itoa(i)
		if lines[row] != w {
			t.Errorf("row %d = %q, want %q", row, lines[row], w)
		}
	}
}

// TestReadCSVLineEnds: CRLF line ends, blank lines and a missing final
// newline read the same recorder as the plain export, as they do
// through encoding/csv.
func TestReadCSVLineEnds(t *testing.T) {
	var buf bytes.Buffer
	if err := exportRecorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	plain := buf.String()
	want, err := ReadCSV(strings.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]string{
		"crlf":            strings.ReplaceAll(plain, "\n", "\r\n"),
		"blank lines":     "\n\r\n" + strings.ReplaceAll(plain, "\n", "\n\n"),
		"no final LF":     strings.TrimSuffix(plain, "\n"),
		"no final CRLF":   strings.TrimSuffix(strings.ReplaceAll(plain, "\n", "\r\n"), "\n"),
		"quoted plain":    strings.Replace(plain, "disk,disk 0,seek", `"disk","disk 0","seek"`, 1),
		"quoted with CRs": strings.ReplaceAll(strings.Replace(plain, "cpu,cpu,", `cpu,"cpu",`, 1), "\n", "\r\n"),
	}
	for name, text := range variants {
		got, err := ReadCSV(strings.NewReader(text))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: read a different recorder", name)
		}
	}
}

// TestReadCSVRejects: a record that encoding/csv would not split into
// six fields is an error, quoted or not, and so is a bad header.
func TestReadCSVRejects(t *testing.T) {
	const header = "kind,track,name,start_ms,end_ms,value\n"
	for name, text := range map[string]string{
		"empty":          "",
		"short header":   "kind,track,name,start_ms,end_ms\n",
		"wrong header":   "track,kind,name,start_ms,end_ms,value\n",
		"five fields":    header + "mark,cpu,x,1,1\n",
		"seven fields":   header + "mark,cpu,x,1,1,,\n",
		"bare quote":     header + "mark,cpu,a\"b,1,1,\n",
		"open quote":     header + "mark,cpu,\"x,1,1,\n",
		"quoted seven":   header + "mark,\"cpu\",x,1,1,,\n",
		"text after end": header + "mark,\"cpu\"x,y,1,1,\n",
		"bad time":       header + "mark,cpu,x,one,1,\n",
		"unknown kind":   header + "spin,cpu,x,1,1,\n",
	} {
		if _, err := ReadCSV(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

// TestReadCSVTrackIDsDense: ReadCSV numbers tracks densely in the
// engine's order (cpu, disks by index, writes by index, other names in
// order of first use), so a large index or an unknown name costs one
// track, not a band of a million.
func TestReadCSVTrackIDsDense(t *testing.T) {
	const header = "kind,track,name,start_ms,end_ms,value\n"
	for _, name := range []string{"write 0", "foo", "disk 10000000", "write 1000000000000"} {
		text := header + "queue," + name + ",depth,1,1,0\n"
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := ReadCSV(strings.NewReader(text))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%q: one row allocated %d bytes", name, alloc)
		}
		if r.Tracks() != 2 || r.TrackName(1) != name {
			t.Errorf("%q: Tracks() = %d, track 1 = %q; want 2 tracks, %q at 1", name, r.Tracks(), r.TrackName(1), name)
		}
	}

	var text strings.Builder
	text.WriteString(header)
	used := []string{"bar", "write 1", "disk 2", "foo", "cpu", "write 0", "disk 0", "disk 00"}
	for _, name := range used {
		text.WriteString("queue," + name + ",depth,1,1,0\n")
	}
	r, err := ReadCSV(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	// "disk 0" and "disk 00" name one disk; the later name wins, as a
	// second Track call for one id does.
	want := []string{"cpu", "disk 00", "disk 2", "write 0", "write 1", "bar", "foo"}
	var got []string
	for id := 0; id < r.Tracks(); id++ {
		got = append(got, r.TrackName(id))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tracks by id = %q, want %q", got, want)
	}
	for i, q := range r.QueueSamples() {
		name := used[i]
		if name == "disk 0" {
			name = "disk 00"
		}
		if r.TrackName(q.Track) != name {
			t.Errorf("row %d: track %q, want %q", i, r.TrackName(q.Track), name)
		}
	}
}

// scaledRecorder is a trace with every row kind, n rows of each, and
// disk spans out of start order so WriteCSV sorts them. No name needs
// quoting: a quoted record is ReadCSV's slow path.
func scaledRecorder(n int) *Recorder {
	r := New(0)
	r.Track(CPUTrack, "cpu")
	r.Track(1, "disk 0")
	r.Track(2, "disk 1")
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 1.37
		r.DiskPhase(1+i%2, PhaseSeek, at+0.5, at+0.75)
		r.DiskPhase(2-i%2, PhaseTransfer, at, at+0.25)
		r.CPUStallOn(i%7, at, at+0.1)
		r.CPUSpan(CPUCompute, at+0.1, at+0.3)
		r.Prefetch(1+i%2, i%7, 4, at, at+1)
		r.CacheSample(at, i%50)
		r.QueueSample(1+i%2, at, i%3)
		r.Mark(i%3, []string{"fault:on", "fault:off", "merge:end"}[i%3], at)
	}
	return r
}

// TestWriteCSVAllocsFlat pins "no per-row allocation": a trace twice
// the size costs WriteCSV no more allocations.
func TestWriteCSVAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		r := scaledRecorder(n)
		return testing.AllocsPerRun(5, func() {
			if err := r.WriteCSV(discard{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(2000), allocs(4000)
	if big > small {
		t.Fatalf("WriteCSV allocations grew with rows: %v for 16k rows, %v for 32k", small, big)
	}
}

// TestReadCSVNoPerRowStrings: ReadCSV copies a string only for a new
// track or mark name, so doubling the rows adds only the few
// allocations of growing the recorder's slices.
func TestReadCSVNoPerRowStrings(t *testing.T) {
	allocs := func(n int) (float64, int) {
		var buf bytes.Buffer
		if err := scaledRecorder(n).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		}), n * 8
	}
	small, rows := allocs(2000)
	big, _ := allocs(4000)
	if extra := big - small; extra > float64(rows)/100 {
		t.Fatalf("ReadCSV made %v more allocations for %d more rows", extra, rows)
	}
}

// discard is io.Discard without its ReadFrom, so the writes are the
// ones WriteCSV makes.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// FuzzReadCSV checks ReadCSV against encoding/csv (FieldsPerRecord 6)
// as the reference splitter: it never panics; it rejects what
// encoding/csv rejects; on what encoding/csv splits, it reads the same
// recorder as from that split re-encoded by csv.Writer; every name it
// reads is quoted by WriteCSV as csv.Writer quotes it; and any input it
// accepts exports a CSV that is a fixed point of read and write.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := exportRecorder().WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := quotingRecorder().WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("kind,track,name,start_ms,end_ms,value\r\n\r\nmark,\"a\"\"b\",\"x\ny\",-0,-0,\r\nqueue,write 3,depth,1e+06,1e+06,2"))
	f.Add([]byte("kind,track,name,start_ms,end_ms,value\ndisk,disk 10000000,seek,0,1,\ncpu,cpu,stall,1,2,3\n"))
	f.Add([]byte("kind,track,name,start_ms,end_ms,value\nprefetch,\"disk 0\",run 3,0.5,9,4\nmark,cpu,trace-truncated,9,9,\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadCSV(bytes.NewReader(data))

		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = 6
		rows, csvErr := cr.ReadAll()
		if csvErr != nil {
			if err == nil {
				t.Fatalf("accepted what encoding/csv rejects (%v): %q", csvErr, data)
			}
			return
		}
		var canon bytes.Buffer
		if err := csv.NewWriter(&canon).WriteAll(rows); err != nil {
			t.Fatal(err)
		}
		want, wantErr := ReadCSV(&canon)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("accepts %v, but its csv.Writer form %v: %q", err, wantErr, data)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("read a different recorder than from its csv.Writer form: %q", data)
		}

		names := make([]string, 0, rec.Tracks()+len(rec.Marks()))
		for id := 0; id < rec.Tracks(); id++ {
			names = append(names, rec.TrackName(id))
		}
		for _, m := range rec.Marks() {
			names = append(names, m.Name)
		}
		for _, name := range names {
			var want bytes.Buffer
			cw := csv.NewWriter(&want)
			if err := cw.Write([]string{name, "x"}); err != nil {
				t.Fatal(err)
			}
			cw.Flush()
			if got := string(appendCSVField(nil, name)) + ",x\n"; got != want.String() {
				t.Fatalf("field %q encodes as %q, csv.Writer as %q", name, got, want.String())
			}
		}

		var first, second bytes.Buffer
		if err := rec.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rejects its own export (%v):\n%q", err, first.String())
		}
		if err := back.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export not a fixed point:\nfirst:\n%q\nsecond:\n%q", first.String(), second.String())
		}
	})
}
