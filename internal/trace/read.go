package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ReadCSV reconstructs a Recorder from a WriteCSV export, so trace
// analytics (internal/explain, cmd/traceq) can run on a saved trace
// file as well as on a live in-process recorder. The reconstruction is
// faithful for everything the analytics consume: spans, samples, marks,
// track names, and the truncated flag (restored from the sentinel
// TruncatedMark row). Record order within each category follows file
// order, which WriteCSV made chronological.
//
// It accepts what encoding/csv's Reader accepts as six-field records:
// LF or CRLF line ends, blank lines skipped, no final newline needed,
// and RFC 4180 quoted fields.
func ReadCSV(rd io.Reader) (*Recorder, error) {
	in := csvRecords{br: bufio.NewReaderSize(rd, csvFlushSize)}
	f := &in.fields
	if err := in.next(); err != nil {
		return nil, fmt.Errorf("trace csv: read header: %w", err)
	}
	if string(f[0]) != "kind" || string(f[3]) != "start_ms" {
		return nil, fmt.Errorf("trace csv: unexpected header %q", bytes.Join(f[:], []byte(",")))
	}

	// The cap guards live recording, not reconstruction: a file that was
	// written under a larger-than-default cap must reload whole, so give
	// the reader effectively unbounded headroom.
	r := New(1 << 30)
	var tracks trackTable
	markNames := map[string]string{}

	for line := 2; ; line++ {
		err := in.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace csv: line %d: %w", line, err)
		}
		kind, track, name, val := f[0], f[1], f[2], f[5]
		start, err := strconv.ParseFloat(string(f[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace csv: line %d: start_ms %q: %w", line, f[3], err)
		}
		end := start
		if !bytes.Equal(f[4], f[3]) {
			if end, err = strconv.ParseFloat(string(f[4]), 64); err != nil {
				return nil, fmt.Errorf("trace csv: line %d: end_ms %q: %w", line, f[4], err)
			}
		}
		s, e := sim.Time(start), sim.Time(end)
		switch string(kind) {
		case "disk":
			p, ok := parsePhase(name)
			if !ok {
				return nil, fmt.Errorf("trace csv: line %d: unknown disk phase %q", line, name)
			}
			r.DiskPhase(tracks.id(track), p, s, e)
		case "cpu":
			switch string(name) {
			case "compute":
				tracks.id(track)
				r.CPUSpan(CPUCompute, s, e)
			case "stall":
				tracks.id(track)
				run := -1
				if len(val) > 0 {
					if run, err = strconv.Atoi(string(val)); err != nil {
						return nil, fmt.Errorf("trace csv: line %d: stall run %q: %w", line, val, err)
					}
				}
				r.CPUStallOn(run, s, e)
			default:
				return nil, fmt.Errorf("trace csv: line %d: unknown cpu span %q", line, name)
			}
		case "prefetch":
			run, ok := bytes.CutPrefix(name, []byte("run "))
			if !ok {
				return nil, fmt.Errorf("trace csv: line %d: prefetch name %q", line, name)
			}
			rn, err := strconv.Atoi(string(run))
			if err != nil {
				return nil, fmt.Errorf("trace csv: line %d: prefetch run %q: %w", line, run, err)
			}
			blocks, err := strconv.Atoi(string(val))
			if err != nil {
				return nil, fmt.Errorf("trace csv: line %d: prefetch blocks %q: %w", line, val, err)
			}
			r.Prefetch(tracks.id(track), rn, blocks, s, e)
		case "cache":
			occ, err := strconv.Atoi(string(val))
			if err != nil {
				return nil, fmt.Errorf("trace csv: line %d: cache occupancy %q: %w", line, val, err)
			}
			r.CacheSample(s, occ)
		case "queue":
			depth, err := strconv.Atoi(string(val))
			if err != nil {
				return nil, fmt.Errorf("trace csv: line %d: queue depth %q: %w", line, val, err)
			}
			r.QueueSample(tracks.id(track), s, depth)
		case "mark":
			if string(name) == TruncatedMark {
				r.truncated = true
				continue
			}
			m, ok := markNames[string(name)]
			if !ok {
				m = string(name)
				markNames[m] = m
			}
			r.Mark(tracks.id(track), m, s)
		default:
			return nil, fmt.Errorf("trace csv: line %d: unknown kind %q", line, kind)
		}
	}
	tracks.register(r)
	return r, nil
}

// parsePhase is the inverse of Phase.String.
func parsePhase(name []byte) (Phase, bool) {
	switch string(name) {
	case "seek":
		return PhaseSeek, true
	case "rotation":
		return PhaseRotation, true
	case "retry":
		return PhaseRetry, true
	case "transfer":
		return PhaseTransfer, true
	case "outage":
		return PhaseOutage, true
	}
	return 0, false
}

// csvRecords splits a CSV stream into six-field records the way
// encoding/csv's Reader with FieldsPerRecord = 6 does. A line with no
// quote is split in place on commas; a record whose first line holds a
// quote is gathered whole and handed to encoding/csv, since only RFC
// 4180 quoting lets a field hold a comma, a quote or a line break.
type csvRecords struct {
	br     *bufio.Reader
	fields [6][]byte // the current record; valid until the next call
	line   int       // physical lines read
	long   []byte    // a line longer than br's buffer
	quoted []byte    // the raw text of a quoted record
}

// next reads the next record into in.fields, skipping blank lines. It
// returns io.EOF after the last record.
func (in *csvRecords) next() error {
	var raw, line []byte
	for len(line) == 0 {
		var err error
		if raw, err = in.readLine(); err != nil {
			return err
		}
		line = raw
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	if bytes.IndexByte(line, '"') >= 0 {
		return in.quotedRecord(raw)
	}
	for i := 0; i < 5; i++ {
		j := bytes.IndexByte(line, ',')
		if j < 0 {
			return in.fieldCountError()
		}
		in.fields[i], line = line[:j], line[j+1:]
	}
	if bytes.IndexByte(line, ',') >= 0 {
		return in.fieldCountError()
	}
	in.fields[5] = line
	return nil
}

// readLine returns the next line with its line end, or io.EOF.
func (in *csvRecords) readLine() ([]byte, error) {
	line, err := in.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		in.long = append(in.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = in.br.ReadSlice('\n')
			in.long = append(in.long, line...)
		}
		line = in.long
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	in.line++
	return line, nil
}

// quotedRecord reads the record that starts with raw, a line holding a
// quote. A line break inside a quoted field leaves an odd number of
// quotes behind it, so the record runs to the first line end with an
// even count (or to EOF, where an open quote is encoding/csv's error).
func (in *csvRecords) quotedRecord(raw []byte) error {
	first := in.line
	in.quoted = append(in.quoted[:0], raw...)
	for odd := bytes.Count(raw, quote)%2 == 1; odd; {
		more, err := in.readLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		in.quoted = append(in.quoted, more...)
		odd = odd != (bytes.Count(more, quote)%2 == 1)
	}
	cr := csv.NewReader(bytes.NewReader(in.quoted))
	cr.FieldsPerRecord = len(in.fields)
	rec, err := cr.Read()
	if err != nil {
		// Report the lines of the whole stream, not of the record.
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += first - 1
			pe.Line += first - 1
		}
		return err
	}
	for i, field := range rec {
		in.fields[i] = []byte(field)
	}
	return nil
}

var quote = []byte{'"'}

// fieldCountError is the error encoding/csv reports for an unquoted
// record on the current line without six fields.
func (in *csvRecords) fieldCountError() error {
	return &csv.ParseError{StartLine: in.line, Line: in.line, Column: 1, Err: csv.ErrFieldCount}
}

// trackTable numbers the track names ReadCSV meets in the order the
// engine registers tracks on a live recorder: "cpu" is track 0, then
// "disk N" by N, then "write N" by N, then any other name in the order
// the file first uses it. Ids are handed out on first use and made
// dense by register once the whole file is read, so a name such as
// "disk 10000000" costs one track, not ten million.
type trackTable struct {
	ids   map[string]int   // name → provisional id
	byKey map[trackKey]int // order key → provisional id
	keys  []trackKey       // provisional id → order key
	names []string         // provisional id → name
}

// trackKey orders tracks: by band (0 cpu, 1 disk, 2 write, 3 other),
// then by n (the disk or write index, or the order of first use).
type trackKey struct{ band, n int }

// id returns the provisional id of a track name, adding it on first
// use. Names with one key ("disk 1", "disk 01") share a track, which
// keeps the name added last.
func (t *trackTable) id(name []byte) int {
	if id, ok := t.ids[string(name)]; ok {
		return id
	}
	if t.ids == nil {
		t.ids, t.byKey = map[string]int{}, map[trackKey]int{}
	}
	s := string(name)
	key := trackKey{band: 3, n: len(t.ids)}
	if s == "cpu" {
		key = trackKey{band: 0}
	} else if n, ok := strings.CutPrefix(s, "disk "); ok {
		if d, err := strconv.Atoi(n); err == nil && d >= 0 {
			key = trackKey{band: 1, n: d}
		}
	} else if n, ok := strings.CutPrefix(s, "write "); ok {
		if d, err := strconv.Atoi(n); err == nil && d >= 0 {
			key = trackKey{band: 2, n: d}
		}
	}
	id, ok := t.byKey[key]
	if ok {
		t.names[id] = s
	} else {
		id = len(t.keys)
		t.byKey[key] = id
		t.keys = append(t.keys, key)
		t.names = append(t.names, s)
	}
	t.ids[s] = id
	return id
}

// register renumbers the tracks r's records use from provisional ids
// to final ones and names them on r. Track 0 stays the CPU's even when
// the file never names it, because CPU spans carry no track.
func (t *trackTable) register(r *Recorder) {
	if len(t.keys) == 0 {
		return
	}
	order := make([]int, len(t.keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := t.keys[order[a]], t.keys[order[b]]
		return ka.band < kb.band || ka.band == kb.band && ka.n < kb.n
	})
	final := make([]int, len(t.keys))
	next := CPUTrack + 1
	for _, id := range order {
		if t.keys[id].band == 0 {
			final[id] = CPUTrack
		} else {
			final[id] = next
			next++
		}
		r.Track(final[id], t.names[id])
	}
	for i := range r.disk {
		r.disk[i].Track = final[r.disk[i].Track]
	}
	for i := range r.prefetch {
		r.prefetch[i].Track = final[r.prefetch[i].Track]
	}
	for i := range r.queue {
		r.queue[i].Track = final[r.queue[i].Track]
	}
	for i := range r.marks {
		r.marks[i].Track = final[r.marks[i].Track]
	}
}
