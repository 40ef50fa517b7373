package trace

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

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
	ms := func(t sim.Time) string { return strconv.FormatFloat(float64(t), 'g', -1, 64) }
	disk, cpu, prefetch := r.DiskSpans(), r.CPUSpans(), r.PrefetchSpans()
	cache, queue, marks := r.CacheSamples(), r.QueueSamples(), r.Marks()
	// One source per category, in the fixed order that breaks ties
	// between equal start instants.
	srcs := [...]rowSource{
		{n: len(disk), start: func(i int) sim.Time { return disk[i].Start }, fill: func(i int, f []string) {
			s := disk[i]
			f[0], f[1], f[2], f[3], f[4], f[5] = "disk", r.TrackName(s.Track), s.Phase.String(), ms(s.Start), ms(s.End), ""
		}},
		{n: len(cpu), start: func(i int) sim.Time { return cpu[i].Start }, fill: func(i int, f []string) {
			s := cpu[i]
			val := ""
			if s.Kind == CPUStall && s.Run >= 0 {
				val = strconv.Itoa(s.Run)
			}
			f[0], f[1], f[2], f[3], f[4], f[5] = "cpu", r.TrackName(CPUTrack), s.Kind.String(), ms(s.Start), ms(s.End), val
		}},
		{n: len(prefetch), start: func(i int) sim.Time { return prefetch[i].Issued }, fill: func(i int, f []string) {
			s := prefetch[i]
			f[0], f[1], f[2], f[3], f[4], f[5] = "prefetch", r.TrackName(s.Track), "run "+strconv.Itoa(s.Run),
				ms(s.Issued), ms(s.Done), strconv.Itoa(s.Blocks)
		}},
		{n: len(cache), start: func(i int) sim.Time { return cache[i].At }, fill: func(i int, f []string) {
			s := cache[i]
			at := ms(s.At)
			f[0], f[1], f[2], f[3], f[4], f[5] = "cache", "cache", "occupancy", at, at, strconv.Itoa(s.Occupied)
		}},
		{n: len(queue), start: func(i int) sim.Time { return queue[i].At }, fill: func(i int, f []string) {
			s := queue[i]
			at := ms(s.At)
			f[0], f[1], f[2], f[3], f[4], f[5] = "queue", r.TrackName(s.Track), "depth", at, at, strconv.Itoa(s.Depth)
		}},
		{n: len(marks), start: func(i int) sim.Time { return marks[i].At }, fill: func(i int, f []string) {
			m := marks[i]
			at := ms(m.At)
			f[0], f[1], f[2], f[3], f[4], f[5] = "mark", r.TrackName(m.Track), m.Name, at, at, ""
		}},
	}
	for c := range srcs {
		srcs[c].sortByStart()
	}

	cw := csv.NewWriter(w)
	fields := []string{"kind", "track", "name", "start_ms", "end_ms", "value"}
	if err := cw.Write(fields); err != nil {
		return err
	}
	// Merge the sources by start instant; the lowest category wins a
	// tie, which reproduces a stable sort of all rows concatenated in
	// category order.
	rows := 0
	var last sim.Time
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
		s.fill(s.row(), fields)
		if err := cw.Write(fields); err != nil {
			return err
		}
		rows++
		last = s.head
		s.advance()
	}
	if r.Truncated() {
		at := "0"
		if rows > 0 {
			at = ms(last)
		}
		if err := cw.Write([]string{"mark", r.TrackName(CPUTrack), TruncatedMark, at, at, ""}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// rowSource is one event category as a stream of CSV rows in start
// order.
type rowSource struct {
	n     int
	start func(i int) sim.Time    // start instant of record i
	fill  func(i int, f []string) // writes record i's six fields
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
