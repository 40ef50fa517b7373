package core

import (
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
)

// mstate is the merge machine's wait point: which resumption the next
// step call performs.
type mstate uint8

const (
	msInitLoad    mstate = iota // awaiting the initial cache fill
	msDemandWait                // fetch wait before consuming (leading block absent)
	msRefillWait                // fetch wait after consuming (demand refill)
	msMergeSleep                // per-block merge compute time elapsing
	msProduceWait               // write-behind buffer full
	msDrainWait                 // tail writes landing
	msDone
)

// machine is the merge engine: the paper's merge loop with every wait
// point reified as a state, so the merge advances by plain event
// dispatch.
//
// Ordering rule: the machine never resumes inline. Whatever ends a wait
// schedules step as a new event — a block landing, a batch completing
// or a write freeing a buffer slot does so with After(0) inside the
// waking event, and the merge compute time with After(MergeTimePerBlock)
// — so a resumption runs after every event already pending at its
// instant. Same-instant event order, and with it every RNG draw and
// cache decision, is a fixed function of the config; the goldens under
// testdata/ pin it byte for byte.
type machine struct {
	e *engine

	// stepFn caches the step method value: it is scheduled once per
	// resumption and would otherwise allocate a closure each time.
	stepFn func()

	state  mstate
	merged int64
	total  int64

	// j is the demand run of the fetch wait in progress.
	j int

	// awaitLeft counts outstanding awaited requests (synchronized
	// batches and the initial load); the step is scheduled when it
	// reaches zero.
	awaitLeft int

	// watchRun is the run whose next arrival wakes the machine, or -1.
	// The notifier clears it and schedules a same-instant step, which
	// re-checks the condition and may re-register.
	watchRun int

	// watchBuffer marks the machine parked on the writer (a freed
	// write-behind buffer slot, or the drain emptying).
	watchBuffer bool

	stallStart sim.Time // start of the fetch wait in progress
	sleepStart sim.Time // start of the merge-compute sleep
	waitStart  sim.Time // start of the writer wait in progress
}

func newMachine(e *engine) *machine {
	m := &machine{e: e, total: e.cfg.TotalBlocks(), watchRun: -1}
	m.stepFn = m.step
	return m
}

// start retains the machine's liveness and schedules its first event,
// which runs after any events already pending at time zero: it emits
// the proc-start lifecycle mark and issues the initial load.
func (m *machine) start() {
	e := m.e
	e.k.Retain()
	e.k.After(0, func() {
		if tr := e.k.Tracer(); tr != nil {
			tr.Event(e.k.Now(), "proc-start", "cpu")
		}
		m.initialLoad()
	})
}

// initialLoad issues the paper's initial state — the first blocks of
// every run, N per run when the cache allows, at least one — and parks
// until all of them land.
func (m *machine) initialLoad() {
	e := m.e
	base := min(e.cfg.N, e.cfg.CacheBlocks/e.cfg.K)
	if base < 1 {
		base = 1
	}
	n := 0
	for r := 0; r < e.cfg.K; r++ {
		per := min(base, e.lay.RunLength(r))
		if !e.cache.Reserve(per) {
			panic("core: initial load exceeds cache")
		}
		e.nextFetch[r] = per
		e.inflight[r] = per
		n += e.submitRun(r, 0, per, true)
	}
	m.stallStart = e.k.Now()
	m.state = msInitLoad
	m.awaitLeft = n
}

// step resumes the machine after the wait its state records, then runs
// the merge forward until the next park or completion. It is only ever
// invoked as a kernel event.
func (m *machine) step() {
	e := m.e
	switch m.state {
	case msInitLoad:
		e.cfg.Trace.CPUSpan(trace.CPUStall, m.stallStart, e.k.Now())
		m.advance()
	case msDemandWait:
		if !m.arrivalCheck() {
			return
		}
		if !m.consume() {
			return
		}
		m.resumeAfterConsume()
	case msRefillWait:
		if !m.arrivalCheck() {
			return
		}
		m.resumeAfterConsume()
	case msMergeSleep:
		e.cfg.Trace.CPUSpan(trace.CPUCompute, m.sleepStart, e.k.Now())
		m.resumeAfterMerge()
	case msProduceWait:
		if !m.produceCheck() {
			return
		}
		m.finishProduce()
		m.merged++
		m.advance()
	case msDrainWait:
		m.drainCheck()
	case msDone:
		panic("core: merge machine stepped after completion")
	}
}

// advance runs merge-loop iterations from the top until the machine
// parks or the merge completes.
func (m *machine) advance() {
	e := m.e
	for m.merged < m.total {
		m.j = e.model.Choose(e.active)

		// The invariant of the paper's loop is that every active run has
		// its leading block cached; replayed or skewed workloads can
		// break it, so wait defensively.
		if e.cache.Available(m.j) == 0 && !m.beginFetch(msDemandWait) {
			return
		}
		if !m.consume() {
			return
		}
		if !m.postMerge() {
			return
		}
		if e.writer != nil && !m.produce() {
			return
		}
		m.merged++
	}
	m.finishUp()
}

// resumeAfterConsume continues an iteration from just after the
// consume step (a satisfied refill wait lands here).
func (m *machine) resumeAfterConsume() {
	if !m.postMerge() {
		return
	}
	m.resumeAfterMerge()
}

// resumeAfterMerge continues an iteration from just after the merge
// compute time.
func (m *machine) resumeAfterMerge() {
	if m.e.writer != nil && !m.produce() {
		return
	}
	m.merged++
	m.advance()
}

// beginFetch starts the fetch wait for demand run m.j: issue a fetch
// unless one is already in flight, await the whole batch when
// synchronized, then wait for the leading block. It reports whether the
// wait completed inline.
func (m *machine) beginFetch(st mstate) bool {
	e := m.e
	m.state = st
	m.stallStart = e.k.Now()
	if e.nextFetch[m.j] <= e.cache.NextToConsume(m.j) {
		n := e.submitBatch(e.planFetch(m.j), e.cfg.Synchronized)
		if e.cfg.Synchronized && n > 0 {
			m.awaitLeft = n
			return false
		}
	}
	return m.arrivalCheck()
}

// arrivalCheck finishes the fetch wait if run j's leading block is
// cached, registering for its next arrival otherwise.
func (m *machine) arrivalCheck() bool {
	e := m.e
	if e.cache.Available(m.j) > 0 {
		now := e.k.Now()
		stall := now - m.stallStart
		e.stallTime += stall
		e.stallHist.Add(stall.Milliseconds())
		e.cfg.Trace.CPUStallOn(m.j, m.stallStart, now)
		return true
	}
	m.watchRun = m.j
	return false
}

// consume merges run j's leading block: the loop body between the
// demand wait and the merge time. It reports false when the refill
// fetch parked the machine.
func (m *machine) consume() bool {
	e := m.e
	j := m.j
	e.cache.Consume(j)
	e.consumedOf[j]++
	if e.consumedOf[j] == e.lay.RunLength(j) {
		e.deactivate(j)
	} else if e.cache.Available(j) == 0 {
		// The run's cached blocks are exhausted: the next block is
		// the demand-fetch block (paper §2). Fetch and wait per the
		// configured synchronization before merging proceeds.
		if !m.beginFetch(msRefillWait) {
			return false
		}
	}
	return true
}

// postMerge elapses the per-block merge compute time, if configured.
func (m *machine) postMerge() bool {
	e := m.e
	if e.cfg.MergeTimePerBlock > 0 {
		m.state = msMergeSleep
		m.sleepStart = e.k.Now()
		e.k.After(e.cfg.MergeTimePerBlock, m.stepFn)
		return false
	}
	return true
}

// produce hands the merged block to the write-behind writer, parking
// while the buffer is full. Callers guard on e.writer != nil.
func (m *machine) produce() bool {
	e := m.e
	m.state = msProduceWait
	m.waitStart = e.k.Now()
	if !m.produceCheck() {
		return false
	}
	m.finishProduce()
	return true
}

// produceCheck reports whether the write-behind buffer has room,
// registering for the next freed slot otherwise.
func (m *machine) produceCheck() bool {
	w := m.e.writer
	if w.pending+w.outstanding < w.cfg.BufferBlocks {
		return true
	}
	m.watchBuffer = true
	return false
}

// finishProduce buffers the produced block and flushes a full batch.
func (m *machine) finishProduce() {
	w := m.e.writer
	w.writeStall += m.e.k.Now() - m.waitStart
	w.pending++
	if w.pending >= w.cfg.BatchBlocks {
		m.flush(w.pending)
	}
}

// flush submits a write of n buffered blocks to the next round-robin
// target on the pooled request path. Buffer slots free as individual
// blocks land on the platter.
func (m *machine) flush(n int) {
	e := m.e
	w := e.writer
	target := w.nextTarget
	w.nextTarget = (w.nextTarget + 1) % len(w.disks)
	addr := w.nextAddr[target]
	w.nextAddr[target] += n
	w.pending -= n
	w.outstanding += n
	ww := e.getWriteWrap()
	ww.req.Start, ww.req.Count, ww.req.Tag = addr, n, "write"
	w.disks[target].SubmitNoWait(&ww.req)
}

// finishUp ends the merge loop: flush the ragged write tail and wait
// for all writes to land, then finish.
func (m *machine) finishUp() {
	e := m.e
	if e.writer != nil {
		if e.writer.pending > 0 {
			m.flush(e.writer.pending)
		}
		m.state = msDrainWait
		m.waitStart = e.k.Now()
		m.drainCheck()
		return
	}
	m.finish()
}

// drainCheck completes the run once every submitted write has landed.
func (m *machine) drainCheck() {
	w := m.e.writer
	if w.outstanding != 0 {
		m.watchBuffer = true
		return
	}
	w.writeStall += m.e.k.Now() - m.waitStart
	m.finish()
}

// finish records the merge's completion instant, emits the proc-end
// lifecycle mark and releases the machine's liveness hold.
func (m *machine) finish() {
	e := m.e
	e.finish = e.k.Now()
	m.state = msDone
	if tr := e.k.Tracer(); tr != nil {
		tr.Event(e.k.Now(), "proc-end", "cpu")
	}
	e.k.Release()
}

// noteArrival observes every deposited block: when the machine is
// parked on that run's arrival it schedules a same-instant step, which
// re-checks the arrival condition.
func (m *machine) noteArrival(run int) {
	if m.watchRun == run {
		m.watchRun = -1
		m.e.k.After(0, m.stepFn)
	}
}

// noteBatchDone observes an awaited request's last block landing; the
// machine proceeds, one same-instant step later, when the whole batch
// is in.
func (m *machine) noteBatchDone() {
	m.awaitLeft--
	if m.awaitLeft == 0 {
		m.e.k.After(0, m.stepFn)
	}
}

// noteWriteSlot observes a written block freeing a buffer slot.
func (m *machine) noteWriteSlot() {
	if m.watchBuffer {
		m.watchBuffer = false
		m.e.k.After(0, m.stepFn)
	}
}

// fetchWrap is a pooled in-flight read request: the Request, its
// delivery context, and a bound-once OnBlock. The wrapper frees itself
// as its last block lands, so a steady-state fetch allocates nothing.
type fetchWrap struct {
	e       *engine
	req     disk.Request
	run     int
	ext     layout.Extent
	issued  sim.Time
	awaited bool
}

// onBlock is the delivery callback: deposit, in-flight accounting and
// arrival wake, then on the last block the prefetch span and batch
// accounting. The order is part of the pinned behaviour: an arrival
// wake is scheduled before the batch wake of the same block.
func (w *fetchWrap) onBlock(i int, at sim.Time) {
	e := w.e
	e.cache.Deposit(w.run, w.ext.BlockIndex(i))
	e.inflight[w.run]--
	e.m.noteArrival(w.run)
	if i == w.ext.Count-1 {
		e.cfg.Trace.Prefetch(trace.CPUTrack+1+w.ext.Disk, w.run, w.ext.Count, w.issued, at)
		if w.awaited {
			e.m.noteBatchDone()
		}
		// Safe to recycle here: reuse can only happen in a later event
		// (machine steps are always scheduled, never run inline), and
		// the disk is done reading the request by then.
		e.fetchFree = append(e.fetchFree, w)
	}
}

func (e *engine) getFetchWrap() *fetchWrap {
	if n := len(e.fetchFree); n > 0 {
		w := e.fetchFree[n-1]
		e.fetchFree[n-1] = nil
		e.fetchFree = e.fetchFree[:n-1]
		return w
	}
	w := &fetchWrap{e: e}
	w.req.OnBlock = w.onBlock
	return w
}

// writeWrap is the pooled write-request counterpart of fetchWrap.
type writeWrap struct {
	e   *engine
	req disk.Request
}

func (w *writeWrap) onBlock(i int, at sim.Time) {
	wr := w.e.writer
	wr.outstanding--
	wr.written++
	w.e.m.noteWriteSlot()
	if i == w.req.Count-1 {
		w.e.writeFree = append(w.e.writeFree, w)
	}
}

func (e *engine) getWriteWrap() *writeWrap {
	if n := len(e.writeFree); n > 0 {
		w := e.writeFree[n-1]
		e.writeFree[n-1] = nil
		e.writeFree = e.writeFree[:n-1]
		return w
	}
	w := &writeWrap{e: e}
	w.req.OnBlock = w.onBlock
	return w
}

// submitRun submits the fetch of run r's blocks [from, from+n) as
// per-disk pooled requests and returns how many requests were
// submitted. Contiguous placements take a single-extent fast path;
// striped runs decompose through the layout.
func (e *engine) submitRun(run, from, n int, awaited bool) int {
	issued := e.k.Now()
	if h := e.lay.HomeDisk(run); h >= 0 {
		w := e.getFetchWrap()
		w.run, w.issued, w.awaited = run, issued, awaited
		w.ext = layout.Extent{Disk: h, Start: e.lay.RunStart(run) + from, Count: n, FromIdx: from, Stride: 1}
		w.req.Start, w.req.Count, w.req.Tag = w.ext.Start, n, run
		e.disks[h].SubmitNoWait(&w.req)
		return 1
	}
	e.extBuf = e.lay.AppendExtents(e.extBuf[:0], run, from, n)
	for _, ext := range e.extBuf {
		w := e.getFetchWrap()
		w.run, w.ext, w.issued, w.awaited = run, ext, issued, awaited
		w.req.Start, w.req.Count, w.req.Tag = ext.Start, ext.Count, run
		e.disks[ext.Disk].SubmitNoWait(&w.req)
	}
	return len(e.extBuf)
}

// submitBatch reserves cache space for and submits a planned batch,
// returning the number of disk requests submitted.
func (e *engine) submitBatch(batch []piece, awaited bool) int {
	count := 0
	for _, pc := range batch {
		if !e.cache.Reserve(pc.n) {
			// Unreachable by construction: admission just checked space,
			// and the merge loop freed the demand block's slot first.
			panic("core: reservation failed after admission")
		}
		from := e.nextFetch[pc.run]
		e.nextFetch[pc.run] += pc.n
		e.inflight[pc.run] += pc.n
		count += e.submitRun(pc.run, from, pc.n, awaited)
	}
	return count
}
