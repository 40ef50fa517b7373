package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around calls into the
// program: name, start, end and the span that caused it. A nil *tracer
// records nothing, so the untraced end-to-end path takes the same code
// with no cost beyond a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. IDs are 1-based; parent 0 is the root.
type span struct {
	parent     int
	name       string
	start, end time.Duration // since epoch
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{parent: parent, name: name, start: now, end: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// do runs fn inside a span and returns fn's wall time.
func (t *tracer) do(parent int, name string, fn func(id int) error) (time.Duration, error) {
	id := t.begin(parent, name)
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0)
	t.end(id)
	return d, err
}

// layer is the module a span belongs to: its name up to the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of it its children cover, summed by layer.
// Concurrent children (simd clients) are merged before subtracting.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		covered := covered(kids[i+1], s.start, s.end)
		self[layer(s.name)] += (s.end - s.start - covered).Seconds()
	}
	return self
}

// covered is the length of the union of spans clipped to [from, to].
func covered(spans []span, from, to time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		a, b := max(s.start, from), min(s.end, to)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeFile saves the spans as CSV: id, parent, name, start_ns, end_ns.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i+1, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
