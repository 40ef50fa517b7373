// Package explain turns a recorded trace into an attribution report:
// where did the makespan go, per disk and per mechanical phase; which
// disk and which fetch each CPU stall was actually waiting on; how deep
// the disk queues and the cache ran, time-weighted; and which stall
// chains dominated the critical path.
//
// The analysis is a pure function of the recorder's contents — no
// clocks, no randomness, no maps iterated without sorting — so a report
// is byte-identical across runs and worker counts whenever the trace
// is, which internal/core guarantees for a fixed (config, seed).
//
// Conservation is the load-bearing property: per disk,
// busy + idle = makespan; on the CPU,
// compute + stall + initial load + idle = makespan; and the attributed
// stall total must equal core's Result.StallTime (both sides sum the
// same recorded intervals). Check enforces all of it within Epsilon,
// and the property tests in this package replay the engine golden config
// matrix through it.
package explain

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Epsilon is the absolute slack allowed on conservation identities, in
// milliseconds. The sums involved repeat the engine's own additions in
// the same order, so observed residuals are zero; the slack covers
// re-associated float addition if an exporter round-trip reorders
// spans.
const Epsilon sim.Time = 1e-6

// Options parameterizes Build.
type Options struct {
	// Makespan is the run's finish instant (Result.TotalTime). Zero
	// means infer it as the last recorded span end, which is correct
	// for completed merges but undershoots runs cut by MaxSimTime.
	Makespan sim.Time
	// TopChains bounds the critical-path extraction (default 5).
	TopChains int
}

// PhaseBreakdown is busy time split by mechanical phase, in ms.
type PhaseBreakdown struct {
	Seek     sim.Time `json:"seek_ms"`
	Rotation sim.Time `json:"rotation_ms"`
	Retry    sim.Time `json:"retry_ms"`
	Transfer sim.Time `json:"transfer_ms"`
	Outage   sim.Time `json:"outage_ms"`
}

// add accumulates d ms into the bucket for phase p.
func (b *PhaseBreakdown) add(p trace.Phase, d sim.Time) {
	switch p {
	case trace.PhaseSeek:
		b.Seek += d
	case trace.PhaseRotation:
		b.Rotation += d
	case trace.PhaseRetry:
		b.Retry += d
	case trace.PhaseTransfer:
		b.Transfer += d
	case trace.PhaseOutage:
		b.Outage += d
	}
}

// Busy returns the breakdown's total.
func (b PhaseBreakdown) Busy() sim.Time {
	return b.Seek + b.Rotation + b.Retry + b.Transfer + b.Outage
}

// Distribution summarizes a step function (queue depth, cache
// occupancy) time-weighted over the whole makespan.
type Distribution struct {
	// Mean is the time-weighted average level (the integral of the step
	// function divided by the makespan).
	Mean float64 `json:"mean"`
	// Max is the highest sampled level.
	Max int `json:"max"`
	// P95 is the smallest level at or below which the step function
	// spends at least 95% of the makespan.
	P95 int `json:"p95"`
}

// DiskReport is one disk track's share of the makespan.
type DiskReport struct {
	Name   string         `json:"name"`
	Phases PhaseBreakdown `json:"phases"`
	// Busy = Phases.Busy(); Idle = makespan − Busy. Busy + Idle is the
	// per-disk conservation identity.
	Busy        sim.Time `json:"busy_ms"`
	Idle        sim.Time `json:"idle_ms"`
	Utilization float64  `json:"utilization"`
	// Queue summarizes the track's queue-depth step function; all-zero
	// when the trace carries no queue samples for the track.
	Queue Distribution `json:"queue"`
	// Prefetches / PrefetchBlocks count fetch spans served by this
	// track (zero for write disks: output requests are not prefetches).
	Prefetches     int `json:"prefetches"`
	PrefetchBlocks int `json:"prefetch_blocks"`

	track int
}

// CPUReport is the merge CPU's share of the makespan.
type CPUReport struct {
	Compute sim.Time `json:"compute_ms"`
	// Stall is demand-stall time (spans attributed to a run), the trace
	// twin of Result.StallTime.
	Stall sim.Time `json:"stall_ms"`
	// InitialLoad is the up-front wait for the first batch of every
	// run, which core excludes from StallTime.
	InitialLoad sim.Time `json:"initial_load_ms"`
	// Idle is the remainder: output-drain waits (not traced as spans)
	// and scheduling gaps.
	Idle        sim.Time `json:"idle_ms"`
	Utilization float64  `json:"utilization"`
}

// DiskStall is stall time attributed to one blocking disk.
type DiskStall struct {
	Name  string   `json:"name"`
	Stall sim.Time `json:"stall_ms"`
	Count int      `json:"count"`

	track int
}

// StallReport decomposes total demand-stall time by blocking disk and
// by what that disk was mechanically doing during the stall.
type StallReport struct {
	Total  sim.Time    `json:"total_ms"`
	ByDisk []DiskStall `json:"by_disk"`
	// ByPhase intersects each attributed stall interval with the
	// blocking disk's phase spans: the stall time the disk spent
	// seeking, rotating, transferring, ... for anyone's request.
	ByPhase PhaseBreakdown `json:"by_phase"`
	// Queued is the attributed remainder: the blocking disk was idle or
	// parked while the CPU waited (the fetch sat in queue).
	Queued sim.Time `json:"queued_ms"`
	// Unattributed is stall time no prefetch span explains; nonzero
	// values indicate a truncated trace.
	Unattributed sim.Time `json:"unattributed_ms"`
}

// Chain is one critical-path entry: a CPU stall, the fetch that ended
// it, and what the blocking disk spent the wait on.
type Chain struct {
	Run      int      `json:"run"`
	Start    sim.Time `json:"start_ms"`
	End      sim.Time `json:"end_ms"`
	Duration sim.Time `json:"duration_ms"`
	// Disk names the blocking track ("" when unattributed); Issued is
	// when its fetch entered the system — Issued < Start means the
	// fetch was already in flight when the CPU hit the wall.
	Disk   string         `json:"disk,omitempty"`
	Issued sim.Time       `json:"issued_ms"`
	Phases PhaseBreakdown `json:"phases"`
	Queued sim.Time       `json:"queued_ms"`
}

// Report is the full attribution report. All durations are simulated
// milliseconds; JSON field names carry the unit.
type Report struct {
	Makespan sim.Time `json:"makespan_ms"`
	// Truncated propagates the recorder's event-cap flag: a truncated
	// trace yields an untrustworthy report (conservation will fail).
	Truncated bool         `json:"truncated"`
	CPU       CPUReport    `json:"cpu"`
	Disks     []DiskReport `json:"disks"`
	Stall     StallReport  `json:"stall"`
	Cache     Distribution `json:"cache"`
	Chains    []Chain      `json:"chains"`
}

// Build computes the attribution report for a recorded trace. It never
// mutates the recorder.
func Build(r *trace.Recorder, opts Options) *Report {
	rep, _ := build(r, opts)
	return rep
}

// build is Build plus the number of index, cursor, probe and walk
// steps the stall attribution took, which the complexity test pins:
// the count is linear (up to log factors) in the trace size.
func build(r *trace.Recorder, opts Options) (*Report, int) {
	makespan := opts.Makespan
	if makespan <= 0 {
		makespan = lastInstant(r)
	}
	topN := opts.TopChains
	if topN <= 0 {
		topN = 5
	}
	rep := &Report{Makespan: makespan, Truncated: r.Truncated()}

	// Per-disk phase accounting. Spans recorded past the makespan (a
	// MaxSimTime cutoff leaves dispatched requests running) are clamped
	// to it so per-disk totals stay conservative. Each track's spans and
	// queue samples are counted first, so every bucket is allocated once
	// at its exact size.
	tracks := map[int]*diskTrack{}
	trackOrder := []int{}
	trackOf := func(track int) *diskTrack {
		d, ok := tracks[track]
		if !ok {
			d = &diskTrack{rep: DiskReport{Name: r.TrackName(track), track: track}}
			tracks[track] = d
			trackOrder = append(trackOrder, track)
		}
		return d
	}
	for _, s := range r.DiskSpans() {
		if _, _, ok := clamp(s.Start, s.End, makespan); ok {
			trackOf(s.Track).spanLen++
		}
	}
	for _, q := range r.QueueSamples() {
		trackOf(q.Track).queueLen++
	}
	for _, p := range r.PrefetchSpans() {
		d := trackOf(p.Track)
		d.rep.Prefetches++
		d.rep.PrefetchBlocks += p.Blocks
	}
	sort.Ints(trackOrder)
	for _, t := range trackOrder {
		d := tracks[t]
		d.spans.spans = make([]trace.DiskSpan, 0, d.spanLen)
		d.queue = make([]trace.QueueSample, 0, d.queueLen)
	}
	for _, s := range r.DiskSpans() {
		start, end, ok := clamp(s.Start, s.End, makespan)
		if !ok {
			continue
		}
		d := tracks[s.Track]
		d.rep.Phases.add(s.Phase, end-start)
		d.spans.spans = append(d.spans.spans, trace.DiskSpan{Track: s.Track, Phase: s.Phase, Start: start, End: end})
	}
	for _, q := range r.QueueSamples() {
		d := tracks[q.Track]
		d.queue = append(d.queue, q)
	}
	for _, t := range trackOrder {
		d := &tracks[t].rep
		d.Queue = stepDistribution(tracks[t].queue, queueAt, queueDepth, makespan)
		d.Busy = d.Phases.Busy()
		d.Idle = makespan - d.Busy
		if makespan > 0 {
			d.Utilization = float64(d.Busy / makespan)
		}
		rep.Disks = append(rep.Disks, *d)
	}

	// CPU accounting. Initial-load stalls carry no run identity and are
	// reported separately: core excludes them from Result.StallTime.
	for _, s := range r.CPUSpans() {
		start, end, ok := clamp(s.Start, s.End, makespan)
		if !ok {
			continue
		}
		d := end - start
		switch {
		case s.Kind == trace.CPUCompute:
			rep.CPU.Compute += d
		case s.Run >= 0:
			rep.CPU.Stall += d
		default:
			rep.CPU.InitialLoad += d
		}
	}
	rep.CPU.Idle = makespan - rep.CPU.Compute - rep.CPU.Stall - rep.CPU.InitialLoad
	if makespan > 0 {
		rep.CPU.Utilization = float64(rep.CPU.Compute / makespan)
	}

	// Stall attribution + critical chains, over the run-attributed
	// stalls in record order.
	rep.Stall.Total = rep.CPU.Stall
	attrStall := map[int]*DiskStall{}
	fetches := newFetchIndex(r.PrefetchSpans())
	steps := 0
	for _, t := range trackOrder {
		steps += tracks[t].spans.index()
	}
	top := chainHeap{max: topN}
	i := -1
	for _, s := range r.CPUSpans() {
		start, end, ok := clamp(s.Start, s.End, makespan)
		if !ok || s.Kind == trace.CPUCompute || s.Run < 0 {
			continue
		}
		i++
		s.Start, s.End = start, end
		c := Chain{Run: s.Run, Start: s.Start, End: s.End, Duration: s.End - s.Start}
		p := fetches.blocking(s)
		if p == nil {
			rep.Stall.Unattributed += c.Duration
			c.Issued = s.Start
			top.offer(rankedChain{c, i})
			continue
		}
		ds, ok := attrStall[p.Track]
		if !ok {
			ds = &DiskStall{Name: r.TrackName(p.Track), track: p.Track}
			attrStall[p.Track] = ds
		}
		ds.Stall += c.Duration
		ds.Count++
		c.Disk = ds.Name
		c.Issued = p.Issued
		var walked int
		c.Phases, c.Queued, walked = tracks[p.Track].spans.decompose(s.Start, s.End)
		steps += walked
		rep.Stall.ByPhase.Seek += c.Phases.Seek
		rep.Stall.ByPhase.Rotation += c.Phases.Rotation
		rep.Stall.ByPhase.Retry += c.Phases.Retry
		rep.Stall.ByPhase.Transfer += c.Phases.Transfer
		rep.Stall.ByPhase.Outage += c.Phases.Outage
		rep.Stall.Queued += c.Queued
		top.offer(rankedChain{c, i})
	}
	steps += fetches.steps
	stallTracks := make([]int, 0, len(attrStall))
	for t := range attrStall {
		stallTracks = append(stallTracks, t)
	}
	sort.Ints(stallTracks)
	for _, t := range stallTracks {
		rep.Stall.ByDisk = append(rep.Stall.ByDisk, *attrStall[t])
	}
	rep.Chains = top.ranked()

	// Cache occupancy distribution.
	rep.Cache = stepDistribution(r.CacheSamples(), cacheAt, cacheOccupied, makespan)
	return rep, steps
}

// diskTrack is one disk track's share of the trace while build runs:
// its report, its clamped phase spans and its queue samples. A counting
// pass sets spanLen and queueLen before the buckets are allocated.
type diskTrack struct {
	rep               DiskReport
	spans             trackSpans
	queue             []trace.QueueSample
	spanLen, queueLen int
}

// fetchIndex answers the blocking-fetch cascade for a stream of stalls
// without scanning every prefetch per stall. It names the prefetch span
// a stall was waiting on by a cascade of increasingly loose joins:
//
//  1. A same-run fetch in flight at the stall's end (Issued ≤ End ≤
//     Done) — the stall ended because a block of s.Run arrived, so the
//     fetch that spans the wake-up instant is the blocker. Earliest
//     issued wins, then record order.
//  2. Any-run fetch completing exactly at the stall's end: under
//     Synchronized batches the CPU waits for the whole batch, so the
//     wake-up fetch can serve a different run. Earliest issued wins,
//     then record order.
//  3. A same-run fetch merely overlapping the stall (latest done wins,
//     then record order): covers arrival races where the waking deposit
//     was recorded just before the stall span closed.
//
// Each tier has its own index, built once:
//
//   - tier 1 walks a per-run cursor over the run's fetches in issue
//     order, skipping every fetch that completed before the stall's
//     end. The engine records stall ends chronologically, so a skipped
//     fetch stays skipped and the cursors move O(P) steps in total; an
//     end that goes backwards (a hand-made trace file) resets them
//     instead of trusting the order.
//   - tier 2 binary-searches all fetches sorted by (Done, Issued).
//   - tier 3 binary-searches the run's issue order for the fetches
//     issued before the stall's end and reads their latest completion
//     from a prefix argmax.
type fetchIndex struct {
	fetches []trace.PrefetchSpan
	runOf   map[int]int // run → index into runs
	runs    []runFetches
	byDone  []int // all fetches, stable-sorted by (Done, Issued)
	lastEnd sim.Time
	steps   int
}

// runFetches is one run's fetches in issue order.
type runFetches struct {
	byIssued []int // fetch indices, stable-sorted by Issued
	// latest[i] is the fetch of byIssued[:i+1] with the greatest Done,
	// the lowest fetch index among equals.
	latest []int
	// cursor: every fetch in byIssued[:cursor] completed before lastEnd.
	cursor int
}

func newFetchIndex(fetches []trace.PrefetchSpan) *fetchIndex {
	x := &fetchIndex{fetches: fetches, runOf: map[int]int{}, byDone: make([]int, len(fetches))}
	// Count each run's fetches, then carve every run's issue order and
	// prefix argmax from two arrays of len(fetches).
	var counts []int
	for _, p := range fetches {
		ri, ok := x.runOf[p.Run]
		if !ok {
			ri = len(counts)
			x.runOf[p.Run] = ri
			counts = append(counts, 0)
		}
		counts[ri]++
	}
	x.runs = make([]runFetches, len(counts))
	issued, latest := make([]int, len(fetches)), make([]int, len(fetches))
	off := 0
	for ri, n := range counts {
		x.runs[ri].byIssued = issued[off : off : off+n]
		x.runs[ri].latest = latest[off : off+n]
		off += n
	}
	for i, p := range fetches {
		x.byDone[i] = i
		rf := &x.runs[x.runOf[p.Run]]
		rf.byIssued = append(rf.byIssued, i)
	}
	x.steps += len(fetches)
	sort.SliceStable(x.byDone, func(i, j int) bool {
		x.steps++
		a, b := &fetches[x.byDone[i]], &fetches[x.byDone[j]]
		//detlint:allow floatcmp sort tie-break on recorded span bits: identical values must compare equal so the order is deterministic, no tolerance wanted
		if a.Done != b.Done {
			return a.Done < b.Done
		}
		return a.Issued < b.Issued
	})
	for ri := range x.runs {
		rf := &x.runs[ri]
		sort.SliceStable(rf.byIssued, func(i, j int) bool {
			x.steps++
			return fetches[rf.byIssued[i]].Issued < fetches[rf.byIssued[j]].Issued
		})
		for i, f := range rf.byIssued {
			if i > 0 {
				best := rf.latest[i-1]
				//detlint:allow floatcmp argmax tie-break on recorded span bits: equal completion instants fall back to record order
				if d, bd := fetches[f].Done, fetches[best].Done; d < bd || (d == bd && best < f) {
					f = best
				}
			}
			rf.latest[i] = f
		}
		x.steps += len(rf.byIssued)
	}
	return x
}

// blocking returns the fetch stall s was waiting on, or nil when no
// tier matches (a truncated trace).
func (x *fetchIndex) blocking(s trace.CPUSpan) *trace.PrefetchSpan {
	if s.End < x.lastEnd {
		for ri := range x.runs {
			x.runs[ri].cursor = 0
		}
	}
	x.lastEnd = s.End
	ri, haveRun := x.runOf[s.Run]
	var rf *runFetches
	if haveRun {
		rf = &x.runs[ri]
		for rf.cursor < len(rf.byIssued) && x.fetches[rf.byIssued[rf.cursor]].Done < s.End {
			rf.cursor++
			x.steps++
		}
		// The cursor rests on the earliest-issued fetch still in flight
		// or later; if even it was issued after the stall's end, so was
		// every fetch behind it.
		if rf.cursor < len(rf.byIssued) {
			if p := &x.fetches[rf.byIssued[rf.cursor]]; p.Issued <= s.End {
				return p
			}
		}
	}
	i := sort.Search(len(x.byDone), func(i int) bool {
		x.steps++
		return x.fetches[x.byDone[i]].Done >= s.End
	})
	//detlint:allow floatcmp synchronized batches wake the CPU at the exact recorded completion instant; both sides are the same kernel timestamp, so equality is bit-identity, not arithmetic
	if i < len(x.byDone) && x.fetches[x.byDone[i]].Done == s.End {
		return &x.fetches[x.byDone[i]]
	}
	if rf == nil {
		return nil
	}
	n := sort.Search(len(rf.byIssued), func(i int) bool {
		x.steps++
		return x.fetches[rf.byIssued[i]].Issued >= s.End
	})
	if n == 0 {
		return nil
	}
	if p := &x.fetches[rf.latest[n-1]]; p.Done > s.Start {
		return p
	}
	return nil
}

// trackSpans is one disk track's clamped phase spans in record order,
// indexed so the spans overlapping an interval are found without a
// scan. The engine records a track's starts in order, but a span's end
// can overlap the next start by float jitter, so the lower bound
// searches a prefix max of End rather than End itself; and a trace
// read from a CSV file may come in any order, so the walk stops on a
// suffix min of Start rather than on Start itself.
type trackSpans struct {
	spans    []trace.DiskSpan
	maxEnd   []sim.Time // maxEnd[i] = max End over spans[:i+1]
	minStart []sim.Time // minStart[i] = min Start over spans[i:]
}

// index builds the prefix and suffix bounds, returning its step count.
func (ts *trackSpans) index() int {
	n := len(ts.spans)
	ts.maxEnd = make([]sim.Time, n)
	ts.minStart = make([]sim.Time, n)
	for i, sp := range ts.spans {
		ts.maxEnd[i] = sp.End
		if i > 0 && ts.maxEnd[i-1] > sp.End {
			ts.maxEnd[i] = ts.maxEnd[i-1]
		}
	}
	for i := n - 1; i >= 0; i-- {
		ts.minStart[i] = ts.spans[i].Start
		if i < n-1 && ts.minStart[i+1] < ts.minStart[i] {
			ts.minStart[i] = ts.minStart[i+1]
		}
	}
	return 2 * n
}

// decompose intersects the interval [start, end) with the track's
// phase spans, returning per-phase overlap, the uncovered remainder,
// and the steps taken. Overlaps are summed in record order, as a full
// scan would, so every float sum is bit-identical to one. A nil track
// (a fetch on a track with no phase spans) covers nothing.
func (ts *trackSpans) decompose(start, end sim.Time) (PhaseBreakdown, sim.Time, int) {
	var b PhaseBreakdown
	steps := 0
	if ts != nil {
		n := len(ts.spans)
		i := sort.Search(n, func(i int) bool {
			steps++
			return ts.maxEnd[i] > start
		})
		for ; i < n && ts.minStart[i] < end; i++ {
			steps++
			sp := ts.spans[i]
			lo, hi := sp.Start, sp.End
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			if hi > lo {
				b.add(sp.Phase, hi-lo)
			}
		}
	}
	queued := (end - start) - b.Busy()
	if queued < 0 {
		queued = 0
	}
	return b, queued, steps
}

// rankedChain is a chain with its stall's record index, the last
// tie-break of the critical-path order.
type rankedChain struct {
	Chain
	seq int
}

// before is the critical-path order: longest first, then earliest
// start, then lowest run, then stall record order.
func (a rankedChain) before(b rankedChain) bool {
	//detlint:allow floatcmp sort tie-break on recorded span bits: identical values must compare equal so the order is deterministic, no tolerance wanted
	if a.Duration != b.Duration {
		return a.Duration > b.Duration
	}
	//detlint:allow floatcmp sort tie-break on recorded span bits: identical values must compare equal so the order is deterministic, no tolerance wanted
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Run != b.Run {
		return a.Run < b.Run
	}
	return a.seq < b.seq
}

// chainHeap keeps the max best chains offered to it: a binary heap
// whose root is the worst chain kept, so each offer costs O(log max)
// and the full chain list is never materialized or sorted.
type chainHeap struct {
	max   int
	items []rankedChain
}

// offer keeps c if it ranks among the best max chains seen so far.
func (h *chainHeap) offer(c rankedChain) {
	if len(h.items) < h.max {
		h.items = append(h.items, c)
		for i := len(h.items) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h.items[parent].before(h.items[i]) {
				break
			}
			h.items[parent], h.items[i] = h.items[i], h.items[parent]
			i = parent
		}
		return
	}
	if !c.before(h.items[0]) {
		return
	}
	h.items[0] = c
	for i := 0; ; {
		worst := i
		for _, k := range [2]int{2*i + 1, 2*i + 2} {
			if k < len(h.items) && h.items[worst].before(h.items[k]) {
				worst = k
			}
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// ranked returns the kept chains in critical-path order.
func (h *chainHeap) ranked() []Chain {
	sort.Slice(h.items, func(i, j int) bool { return h.items[i].before(h.items[j]) })
	var out []Chain
	for _, c := range h.items {
		out = append(out, c.Chain)
	}
	return out
}

// stepDistribution integrates a right-continuous step function given by
// samples over [0, makespan]; at and level read one sample's instant
// and level. The level is 0 before the first sample and holds the last
// sample's value to the end. The recorder takes samples in
// chronological order; out-of-order ones (a hand-made trace file) are
// stable-sorted on a copy first.
func stepDistribution[S any](samples []S, at func(S) sim.Time, level func(S) int, makespan sim.Time) Distribution {
	if len(samples) == 0 || makespan <= 0 {
		return Distribution{}
	}
	before := func(i, j int) bool { return at(samples[i]) < at(samples[j]) }
	if !sort.SliceIsSorted(samples, before) {
		samples = append([]S(nil), samples...)
		sort.SliceStable(samples, before)
	}
	timeAt := map[int]sim.Time{}
	var integral float64
	maxDepth := 0
	prevAt, prevDepth := sim.Time(0), 0
	account := func(until sim.Time, depth int) {
		if until > prevAt {
			dt := until - prevAt
			timeAt[depth] += dt
			integral += float64(depth) * float64(dt)
		}
	}
	for _, s := range samples {
		t, depth := at(s), level(s)
		if t > makespan {
			t = makespan
		}
		account(t, prevDepth)
		prevAt, prevDepth = t, depth
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	account(makespan, prevDepth)

	depths := make([]int, 0, len(timeAt))
	for d := range timeAt {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	var cum sim.Time
	p95 := maxDepth
	for _, d := range depths {
		cum += timeAt[d]
		if float64(cum) >= 0.95*float64(makespan) {
			p95 = d
			break
		}
	}
	return Distribution{Mean: integral / float64(makespan), Max: maxDepth, P95: p95}
}

// Accessors that let stepDistribution read queue and cache samples in
// place.
func queueAt(q trace.QueueSample) sim.Time  { return q.At }
func queueDepth(q trace.QueueSample) int    { return q.Depth }
func cacheAt(c trace.CacheSample) sim.Time  { return c.At }
func cacheOccupied(c trace.CacheSample) int { return c.Occupied }

// clamp restricts [start, end) to [0, makespan), reporting false for
// intervals entirely outside it.
func clamp(start, end, makespan sim.Time) (sim.Time, sim.Time, bool) {
	if start >= makespan || end <= start {
		return 0, 0, false
	}
	if end > makespan {
		end = makespan
	}
	return start, end, true
}

// lastInstant scans every recorded event for the latest timestamp.
func lastInstant(r *trace.Recorder) sim.Time {
	var last sim.Time
	for _, s := range r.DiskSpans() {
		if s.End > last {
			last = s.End
		}
	}
	for _, s := range r.CPUSpans() {
		if s.End > last {
			last = s.End
		}
	}
	for _, s := range r.PrefetchSpans() {
		if s.Done > last {
			last = s.Done
		}
	}
	for _, s := range r.CacheSamples() {
		if s.At > last {
			last = s.At
		}
	}
	for _, s := range r.QueueSamples() {
		if s.At > last {
			last = s.At
		}
	}
	for _, m := range r.Marks() {
		if m.At > last {
			last = m.At
		}
	}
	return last
}
