// Package sim is a deterministic discrete-event simulation kernel. It is
// the Go substrate standing in for the Rice CSIM package the paper's
// simulator was built on.
//
// The kernel owns a virtual clock and an event calendar, and all work is
// a scheduled callback (Kernel.At / Kernel.After). Actors that wait —
// the merge engine waiting on a fetch, a disk waiting out an outage —
// are state machines: they record where they stopped and schedule the
// callback that resumes them. A callback that wakes another actor at the
// current instant does so with After(0), which runs the wake after
// every event already pending at that instant.
//
// Determinism: the kernel runs one callback at a time on the caller's
// goroutine, and simultaneous events fire in schedule order (a monotone
// sequence number breaks ties). Two runs of the same program with the
// same inputs produce identical event orderings, which the validation
// tests rely on.
package sim

import (
	"errors"
	"fmt"
	"sync"
)

// ErrDeadlock is returned by Run when retained actors remain but the
// event calendar is empty: no event can ever resume them.
var ErrDeadlock = errors.New("sim: deadlock: live actors but no pending events")

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the calendar drained.
var ErrStopped = errors.New("sim: stopped")

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// ekey is an event's ordering key. The pending set stores keys and
// callbacks in parallel arrays so ordering comparisons touch a dense
// 16-byte-per-entry key array and moves copy a key and a pointer
// instead of a 24-byte struct.
type ekey struct {
	at  Time
	seq uint64
}

// before orders events by time, then by scheduling order.
func (k ekey) before(o ekey) bool {
	//detlint:allow floatcmp event timestamps are copied, never recomputed, so tie-breaking on exact equality is sound
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// calendar is the pending-event set, specialized to event so pushes and
// pops never box through `any` or call through a heap.Interface. Two
// structures back it:
//
//   - sorted: parallel key/callback arrays held ascending by (at, seq)
//     with a read cursor. Chained block deliveries keep the pending set
//     in the single digits (about one timed event per busy disk plus
//     the merge's own timer), and at that size a sorted array beats any
//     heap: pop is a cursor bump, and a push is usually a plain append
//     because new events land later than everything already pending.
//   - fifo: a ring of events scheduled AT the current instant while the
//     clock already stands there. Same-instant wakes (After(0)) are the
//     hottest scheduling path; those events append and pop in O(1)
//     without disturbing the sorted set.
//
// The fifo invariant: every buffered event has at == the clock's current
// instant, and its seq is greater than any event pushed earlier. The
// clock cannot advance while the fifo is non-empty (its events are never
// later than any sorted-set event), so the invariant is stable; ordering
// between the fifo front and the sorted-set head is decided by (at, seq)
// as it would be in a single queue.
type calendar struct {
	hkey  []ekey   // pending keys, ascending by (at, seq); live in [hhead:]
	hfn   []func() // pending callbacks, parallel to hkey
	hhead int      // sorted-set read cursor
	fifo  []event
	head  int // fifo read cursor
}

func (c *calendar) len() int { return len(c.hkey) - c.hhead + len(c.fifo) - c.head }

// nextAt returns the timestamp of the earliest pending event. The fifo,
// when non-empty, holds events at the current instant, which no timed
// event can precede.
func (c *calendar) nextAt() Time {
	if c.head < len(c.fifo) {
		return c.fifo[c.head].at
	}
	return c.hkey[c.hhead].at
}

// push inserts e scheduled from the current instant now. Same-instant
// events take the fifo unless the ring holds events from another
// instant (only possible after RunUntil rewound the clock to an earlier
// horizon); those fall through to the sorted set, which orders anything.
func (c *calendar) push(e event, now Time) {
	//detlint:allow floatcmp same-instant FIFO admission compares copied timestamps; exact equality is the intended semantics
	if e.at == now && (len(c.fifo) == c.head || c.fifo[len(c.fifo)-1].at == e.at) {
		//detlint:allow hotalloc amortized: the FIFO ring reaches steady-state capacity and is reused
		c.fifo = append(c.fifo, e)
		return
	}
	if c.hhead > 32 && c.hhead > len(c.hkey)-c.hhead {
		c.compact()
	}
	k := ekey{at: e.at, seq: e.seq}
	kk := c.hkey
	// Tail fast path: later than everything pending (the common case —
	// handlers schedule their next event a service time into the future).
	if n := len(kk); n == c.hhead || !k.before(kk[n-1]) {
		//detlint:allow hotalloc amortized: the pending-set arrays reach steady-state capacity and are reused
		c.hkey = append(kk, k)
		//detlint:allow hotalloc amortized: grows in lockstep with hkey above
		c.hfn = append(c.hfn, e.fn)
		return
	}
	// Head fast path: earlier than everything pending, with slack from
	// earlier pops to absorb it without moving anything.
	if c.hhead > 0 && k.before(kk[c.hhead]) {
		c.hhead--
		kk[c.hhead] = k
		c.hfn[c.hhead] = e.fn
		return
	}
	// General insert: scan from the tail and shift the later suffix up
	// one slot. The pending set stays tiny, so the shift is a handful of
	// element copies.
	//detlint:allow hotalloc amortized: the pending-set arrays reach steady-state capacity and are reused
	c.hkey = append(kk, ekey{})
	//detlint:allow hotalloc amortized: grows in lockstep with hkey above
	c.hfn = append(c.hfn, nil)
	kk, fns := c.hkey, c.hfn
	i := len(kk) - 1
	for i > c.hhead && k.before(kk[i-1]) {
		kk[i] = kk[i-1]
		fns[i] = fns[i-1]
		i--
	}
	kk[i] = k
	fns[i] = e.fn
}

// compact slides the live region down over the consumed prefix so the
// backing arrays stop growing while the set merely turns over.
func (c *calendar) compact() {
	n := copy(c.hkey, c.hkey[c.hhead:])
	copy(c.hfn, c.hfn[c.hhead:])
	clear(c.hfn[n:]) // drop stale closure references
	c.hkey = c.hkey[:n]
	c.hfn = c.hfn[:n]
	c.hhead = 0
}

// pop removes and returns the earliest pending event (ties broken by
// schedule order). len() must be positive.
func (c *calendar) pop() event {
	if c.head < len(c.fifo) {
		// The sorted-set head can only precede the fifo front when both
		// sit at the same instant and the timed event was scheduled
		// earlier.
		f := &c.fifo[c.head]
		if len(c.hkey) == c.hhead || (ekey{at: f.at, seq: f.seq}).before(c.hkey[c.hhead]) {
			e := *f
			c.head++
			if c.head == len(c.fifo) {
				// Drained: clear stale closure references and reuse the ring.
				clear(c.fifo)
				c.fifo = c.fifo[:0]
				c.head = 0
			}
			return e
		}
	}
	return c.popSorted()
}

func (c *calendar) popSorted() event {
	h := c.hhead
	e := event{at: c.hkey[h].at, seq: c.hkey[h].seq, fn: c.hfn[h]}
	c.hfn[h] = nil // drop the closure reference
	h++
	if h == len(c.hkey) {
		// Drained: reuse the arrays from the start.
		c.hkey = c.hkey[:0]
		c.hfn = c.hfn[:0]
		h = 0
	}
	c.hhead = h
	return e
}

// calendarPool recycles drained backing arrays across kernels: a sweep
// creates one kernel per simulation point × trial, and reusing grown
// arrays spares every new kernel the append-regrowth ramp.
var calendarPool = sync.Pool{New: func() any { return new(calendar) }}

// release returns a drained calendar's storage to the pool. The arrays
// were cleared as they drained, so no event closures are retained.
func (c *calendar) release() {
	if c.hkey == nil && c.fifo == nil {
		return
	}
	//detlint:allow hotalloc once per kernel run, after the dispatch loop has drained
	recycled := &calendar{hkey: c.hkey[:0], hfn: c.hfn[:0], fifo: c.fifo[:0]}
	c.hkey, c.hfn, c.hhead, c.fifo, c.head = nil, nil, 0, nil, 0
	calendarPool.Put(recycled)
}

// Kernel is a single simulated timeline. A Kernel and everything
// scheduled on it must be used from one goroutine at a time.
type Kernel struct {
	now     Time
	cal     calendar
	seq     uint64
	stopped bool

	// live counts retained actors that have not yet been released.
	live int

	trace Tracer
}

// New returns an empty kernel with the clock at zero.
func New() *Kernel {
	k := &Kernel{}
	k.cal = *calendarPool.Get().(*calendar)
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// SetTracer installs t to observe the lifecycle events actors report;
// nil disables tracing.
func (k *Kernel) SetTracer(t Tracer) { k.trace = t }

// Tracer returns the installed tracer, or nil.
func (k *Kernel) Tracer() Tracer { return k.trace }

// Retain registers an event-driven actor with the kernel's liveness
// accounting: if the calendar drains while any actor is still retained,
// Run reports ErrDeadlock instead of silently ending with work
// outstanding. An actor (the merge engine's state machine) calls Retain
// when it starts and Release when it reaches a terminal state.
func (k *Kernel) Retain() { k.live++ }

// Release undoes one Retain.
func (k *Kernel) Release() { k.live-- }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently reorder the timeline.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.cal.push(event{at: t, seq: k.seq, fn: fn}, k.now)
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Stop halts the run loop after the current event completes. Pending
// events are dropped and retained actors are abandoned.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the calendar is empty.
// It returns nil on a drained calendar with no retained actors,
// ErrDeadlock if actors remain retained with nothing left to resume
// them, and ErrStopped if Stop was called.
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with timestamps <= horizon (a negative horizon
// means "forever"). The clock never advances past the last executed
// event; if the calendar still holds later events when the horizon is
// reached, RunUntil sets the clock to the horizon and returns nil.
//
//detlint:hotpath
func (k *Kernel) RunUntil(horizon Time) error {
	for k.cal.len() > 0 {
		if k.stopped {
			return ErrStopped
		}
		if horizon >= 0 && k.cal.nextAt() > horizon {
			k.now = horizon
			return nil
		}
		e := k.cal.pop()
		k.now = e.at
		e.fn()
	}
	k.cal.release()
	if k.stopped {
		return ErrStopped
	}
	if k.live > 0 {
		return ErrDeadlock
	}
	return nil
}
