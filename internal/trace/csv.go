package trace

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/sim"
)

// TruncatedMark is the name of the sentinel mark row WriteCSV appends
// when the recorder hit its event cap, so a reader of the flat export
// (ReadCSV included) can tell a complete timeline from a clipped one.
const TruncatedMark = "trace-truncated"

// WriteCSV exports the trace as a flat time-series with one row per
// event, sorted by start time (ties keep record order within a category
// and the fixed category order below across categories):
//
//	kind,track,name,start_ms,end_ms,value
//
// kind ∈ {disk, cpu, prefetch, cache, queue, mark}; instantaneous rows
// carry start_ms == end_ms; value is the prefetch block count, the
// cache occupancy, the queue depth, or — on cpu stall rows — the demand
// run the CPU was blocked on, empty otherwise. A truncated trace ends
// with a sentinel "mark" row named by TruncatedMark. The byte stream is
// deterministic for a fixed (config, seed).
func (r *Recorder) WriteCSV(w io.Writer) error {
	disk, cpu, prefetch := r.DiskSpans(), r.CPUSpans(), r.PrefetchSpans()
	cache, queue, marks := r.CacheSamples(), r.QueueSamples(), r.Marks()
	var ms msMemo
	// Each track name is encoded once, on first use.
	names := make([][]byte, r.Tracks())
	// head appends a row's kind and track fields.
	head := func(b []byte, kind string, track int) []byte {
		b = append(append(b, kind...), ',')
		if track < 0 || track >= len(names) {
			b = appendCSVField(b, r.TrackName(track))
		} else {
			if names[track] == nil {
				names[track] = appendCSVField(nil, r.TrackName(track))
			}
			b = append(b, names[track]...)
		}
		return append(b, ',')
	}
	// One source per category, in the fixed order that breaks ties
	// between equal start instants.
	srcs := [...]rowSource{
		{n: len(disk), start: func(i int) sim.Time { return disk[i].Start }, fill: func(b []byte, i int) []byte {
			s := disk[i]
			b = append(head(b, "disk", s.Track), s.Phase.String()...)
			return append(ms.appendTimes(b, s.Start, s.End), '\n')
		}},
		{n: len(cpu), start: func(i int) sim.Time { return cpu[i].Start }, fill: func(b []byte, i int) []byte {
			s := cpu[i]
			b = append(head(b, "cpu", CPUTrack), s.Kind.String()...)
			b = ms.appendTimes(b, s.Start, s.End)
			if s.Kind == CPUStall && s.Run >= 0 {
				b = strconv.AppendInt(b, int64(s.Run), 10)
			}
			return append(b, '\n')
		}},
		{n: len(prefetch), start: func(i int) sim.Time { return prefetch[i].Issued }, fill: func(b []byte, i int) []byte {
			s := prefetch[i]
			b = strconv.AppendInt(append(head(b, "prefetch", s.Track), "run "...), int64(s.Run), 10)
			b = ms.appendTimes(b, s.Issued, s.Done)
			return append(strconv.AppendInt(b, int64(s.Blocks), 10), '\n')
		}},
		{n: len(cache), start: func(i int) sim.Time { return cache[i].At }, fill: func(b []byte, i int) []byte {
			s := cache[i]
			b = ms.appendTimes(append(b, "cache,cache,occupancy"...), s.At, s.At)
			return append(strconv.AppendInt(b, int64(s.Occupied), 10), '\n')
		}},
		{n: len(queue), start: func(i int) sim.Time { return queue[i].At }, fill: func(b []byte, i int) []byte {
			s := queue[i]
			b = ms.appendTimes(append(head(b, "queue", s.Track), "depth"...), s.At, s.At)
			return append(strconv.AppendInt(b, int64(s.Depth), 10), '\n')
		}},
		{n: len(marks), start: func(i int) sim.Time { return marks[i].At }, fill: func(b []byte, i int) []byte {
			m := marks[i]
			b = appendCSVField(head(b, "mark", m.Track), m.Name)
			return append(ms.appendTimes(b, m.At, m.At), '\n')
		}},
	}
	for c := range srcs {
		srcs[c].sortByStart()
	}

	b := make([]byte, 0, csvFlushSize+csvFlushSize/4)
	b = append(b, "kind,track,name,start_ms,end_ms,value\n"...)
	// Merge the sources by start instant; the lowest category wins a
	// tie, which reproduces a stable sort of all rows concatenated in
	// category order.
	var last sim.Time // start of the last row; 0 before any row
	for {
		c := -1
		for i := range srcs {
			if srcs[i].next < srcs[i].n && (c < 0 || srcs[i].head < srcs[c].head) {
				c = i
			}
		}
		if c < 0 {
			break
		}
		s := &srcs[c]
		b = s.fill(b, s.row())
		if len(b) >= csvFlushSize {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		last = s.head
		s.advance()
	}
	if r.Truncated() {
		b = append(head(b, "mark", CPUTrack), TruncatedMark...)
		b = append(ms.appendTimes(b, last, last), '\n')
	}
	_, err := w.Write(b)
	return err
}

// csvFlushSize is how many bytes of rows WriteCSV gathers before each
// write to its io.Writer.
const csvFlushSize = 64 << 10

// msMemo formats row times, remembering the text of the last few it
// formatted: a row's start is often the end of a row just before it.
// Entries are keyed by bit pattern, so -0 and 0 stay apart.
type msMemo struct {
	bits [8]uint64
	text [8][32]byte // the 'g' form of a float64 is at most 24 bytes
	n    [8]uint8    // text length; 0 = empty entry
	next int         // entry the next miss overwrites
}

// appendTimes appends ",start_ms,end_ms," to a row. A time is the
// shortest 'g' form that parses back to the same float64.
func (m *msMemo) appendTimes(b []byte, start, end sim.Time) []byte {
	b = m.appendMs(append(b, ','), start)
	return append(m.appendMs(append(b, ','), end), ',')
}

// appendMs appends one time.
func (m *msMemo) appendMs(b []byte, t sim.Time) []byte {
	x := math.Float64bits(float64(t))
	for i := range m.bits {
		if m.bits[i] == x && m.n[i] != 0 {
			return append(b, m.text[i][:m.n[i]]...)
		}
	}
	n := len(b)
	b = strconv.AppendFloat(b, float64(t), 'g', -1, 64)
	i := m.next
	m.bits[i], m.n[i] = x, uint8(copy(m.text[i][:], b[n:]))
	m.next = (i + 1) % len(m.bits)
	return b
}

// appendCSVField appends s as one CSV field, quoted exactly when and
// how encoding/csv's Writer quotes a field: when it holds a comma, a
// quote, \r or \n, starts with a Unicode space, or is `\.`; inside
// the quotes a quote doubles and everything else is verbatim.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(append(b, s[:i+1]...), '"')
		s = s[i+1:]
	}
	return append(append(b, s...), '"')
}

// csvNeedsQuotes is encoding/csv's Writer.fieldNeedsQuotes for the
// comma separator.
func csvNeedsQuotes(s string) bool {
	if s == `\.` || strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// rowSource is one event category as a stream of CSV rows in start
// order.
type rowSource struct {
	n     int
	start func(i int) sim.Time         // start instant of record i
	fill  func(b []byte, i int) []byte // appends record i's row
	// order is the record indices stable-sorted by start; nil when the
	// record order already is start order (every category but disk
	// spans, whose tracks record ahead of each other, in practice).
	order []int
	next  int      // rows emitted
	head  sim.Time // start of the next row
}

// sortByStart indexes the records in start order, if they are not
// already, and positions the stream on its first row.
func (s *rowSource) sortByStart() {
	for i := 1; i < s.n; i++ {
		if s.start(i) < s.start(i-1) {
			s.order = make([]int, s.n)
			for j := range s.order {
				s.order[j] = j
			}
			sort.SliceStable(s.order, func(a, b int) bool { return s.start(s.order[a]) < s.start(s.order[b]) })
			break
		}
	}
	if s.n > 0 {
		s.head = s.start(s.row())
	}
}

// row is the record index of the next row.
func (s *rowSource) row() int {
	if s.order != nil {
		return s.order[s.next]
	}
	return s.next
}

// advance moves past the current row.
func (s *rowSource) advance() {
	s.next++
	if s.next < s.n {
		s.head = s.start(s.row())
	}
}
