package core

import (
	"fmt"

	"repro/internal/stats"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// engine holds the live state of one simulated merge.
type engine struct {
	cfg Config

	k      *sim.Kernel
	lay    *layout.Layout
	disks  []*disk.Disk
	cache  *cache.Cache
	model  workload.Model
	pick   *rng.Stream // inter-run prefetch run choice
	rrNext []int       // RoundRobinRun cursor per disk

	// Per-run bookkeeping. nextFetch[r] is the next block index of run
	// r to request from disk; inflight[r] counts requested,
	// not-yet-deposited blocks.
	nextFetch []int
	inflight  []int

	// consumedOf[r] counts merged blocks of run r; active lists runs
	// with unmerged blocks, positions tracked for O(1) removal.
	consumedOf []int
	active     []int
	activePos  []int

	// m is the merge state machine that drives the run.
	m *machine

	// Reusable planning buffers: one I/O decision is made per demand
	// miss, and planFetch runs entirely inside them so the steady state
	// allocates nothing. picked and inSet are cleared after every use.
	nominees []piece
	batchBuf []piece
	eligible []int
	picked   []bool
	inSet    []bool
	extBuf   []layout.Extent

	// Pooled in-flight request wrappers for the zero-alloc submit paths
	// (see machine.go).
	fetchFree []*fetchWrap
	writeFree []*writeWrap

	// Disk-concurrency accounting.
	busyCount    int
	lastBusyT    sim.Time
	busyIntegral float64
	nonZeroTime  float64

	// Output modelling (nil unless cfg.Write.Enabled).
	writer   *writer
	writeRot *rng.Stream

	// timeline is non-nil when cfg.RecordTimeline is set.
	timeline *timeline

	// Adaptive prefetch depth (AIMD; equals cfg.N when not adaptive).
	curN        int
	admitStreak int
	sumDepth    int64

	// Outcome counters.
	decisions      int64
	fullPrefetches int64
	stallTime      sim.Time
	stallHist      *stats.Histogram
	finish         sim.Time
}

// Run simulates one merge under cfg and returns its Result.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	e.m = newMachine(e)
	e.m.start()
	if cfg.MaxSimTime > 0 {
		if err := e.k.RunUntil(cfg.MaxSimTime); err != nil {
			return Result{}, e.runError(err)
		}
		if e.finish == 0 { // CPU never completed: horizon reached
			e.finish = e.k.Now()
			res := e.result()
			res.TimedOut = true
			return res, nil
		}
		return e.result(), nil
	}
	if err := e.k.Run(); err != nil {
		return Result{}, e.runError(err)
	}
	return e.result(), nil
}

// runError translates a kernel failure: a stop triggered by an
// unreadable disk surfaces its typed fault (matchable with
// errors.Is(err, faults.ErrUnreadable)); anything else is a simulation
// failure.
func (e *engine) runError(err error) error {
	for _, d := range e.disks {
		if ferr := d.FaultError(); ferr != nil {
			return fmt.Errorf("core: %w", ferr)
		}
	}
	return fmt.Errorf("core: simulation failed: %w", err)
}

// RunTrials simulates trials independent replications (seeds Seed,
// Seed+1, ...) and aggregates them: a single-point RunGrid on the
// default worker pool. Replications run on parallel goroutines when no
// trace recorder or request observer is installed; results are
// aggregated in trial order, so the outcome is identical to a serial
// run.
func RunTrials(cfg Config, trials int) (Aggregate, error) {
	aggs, err := RunGrid([]Config{cfg}, trials, 0)
	if err != nil {
		return Aggregate{}, err
	}
	return aggs[0], nil
}

func newEngine(cfg Config) (*engine, error) {
	k := sim.New()
	if cfg.Trace != nil {
		// The recorder doubles as the kernel tracer so the merge's
		// lifecycle events land as marks on the CPU track.
		k.SetTracer(cfg.Trace)
	}
	lay, err := layout.NewLengths(cfg.Placement, cfg.runLengths(), cfg.D)
	if err != nil {
		return nil, err
	}
	c, err := cache.New(cfg.CacheBlocks, cfg.K)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	e := &engine{
		cfg:        cfg,
		k:          k,
		lay:        lay,
		cache:      c,
		pick:       root.Split("prefetch-pick"),
		rrNext:     make([]int, cfg.D),
		nextFetch:  make([]int, cfg.K),
		inflight:   make([]int, cfg.K),
		consumedOf: make([]int, cfg.K),
		active:     make([]int, cfg.K),
		activePos:  make([]int, cfg.K),
		nominees:   make([]piece, 0, cfg.D+1),
		batchBuf:   make([]piece, 0, cfg.D+1),
		eligible:   make([]int, 0, cfg.K),
		picked:     make([]bool, cfg.K),
		inSet:      make([]bool, cfg.K),
		extBuf:     make([]layout.Extent, 0, cfg.D),
	}
	e.stallHist = stats.NewHistogram(0, 200, 400) // per-miss stall, ms
	e.curN = cfg.N
	if cfg.AdaptiveN {
		e.curN = 1 // start conservatively; successes raise the depth
	}
	e.model = cfg.Workload
	if e.model == nil && cfg.WorkloadFactory != nil {
		// Direct Run calls are a single replication: trial 0.
		e.model = cfg.WorkloadFactory(0)
	}
	if e.model == nil {
		e.model = &workload.Uniform{R: root.Split("depletion")}
	}
	for r := 0; r < cfg.K; r++ {
		e.active[r] = r
		e.activePos[r] = r
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.NewInjector(*cfg.Faults, cfg.D, root.Split("faults"))
	}
	for d := 0; d < cfg.D; d++ {
		dk, err := disk.New(k, d, cfg.Disk, root.SplitIndexed("disk", d))
		if err != nil {
			return nil, err
		}
		dk.SetBusyObserver(e.observerFor(d))
		if cfg.OnRequest != nil {
			dk.SetRequestObserver(cfg.OnRequest)
		}
		dk.SetFaultInjector(inj.Disk(d))
		if cfg.Trace != nil {
			// Track 0 is the CPU; input disk d records on track 1+d.
			cfg.Trace.Track(trace.CPUTrack+1+d, fmt.Sprintf("disk %d", d))
			dk.SetTrace(cfg.Trace, trace.CPUTrack+1+d)
			if di := inj.Disk(d); di != nil {
				di.SetTrace(cfg.Trace, trace.CPUTrack+1+d)
			}
		}
		e.disks = append(e.disks, dk)
	}
	if cfg.Trace != nil {
		cfg.Trace.Track(trace.CPUTrack, "cpu")
		cfg.Trace.CacheSample(0, 0)
		c.SetOccupancyObserver(func(occ int) { cfg.Trace.CacheSample(k.Now(), occ) })
	}
	e.writeRot = root.Split("write")
	w, err := newWriter(e)
	if err != nil {
		return nil, err
	}
	e.writer = w
	if cfg.RecordTimeline {
		n := len(e.disks)
		if w != nil && !w.cfg.Shared {
			n += len(w.disks)
		}
		e.timeline = newTimeline(n)
	}
	return e, nil
}

// observerFor returns the busy observer for disk index i, feeding both
// the concurrency integral and, when enabled, the timeline.
func (e *engine) observerFor(i int) func(at sim.Time, busy bool) {
	return func(at sim.Time, busy bool) {
		e.observeBusy(at, busy)
		if e.timeline != nil {
			e.timeline.observe(i, at, busy)
		}
	}
}

// observeBusy integrates the number of concurrently busy disks.
func (e *engine) observeBusy(at sim.Time, busy bool) {
	dt := float64(at - e.lastBusyT)
	e.busyIntegral += float64(e.busyCount) * dt
	if e.busyCount > 0 {
		e.nonZeroTime += dt
	}
	e.lastBusyT = at
	if busy {
		e.busyCount++
	} else {
		e.busyCount--
	}
}

// remainingToFetch returns how many blocks of run r are neither fetched
// nor being fetched.
func (e *engine) remainingToFetch(r int) int {
	return e.lay.RunLength(r) - e.nextFetch[r]
}

// deactivate removes run r from the active set in O(1).
func (e *engine) deactivate(r int) {
	pos := e.activePos[r]
	last := len(e.active) - 1
	moved := e.active[last]
	e.active[pos] = moved
	e.activePos[moved] = pos
	e.active = e.active[:last]
	e.activePos[r] = -1
}

// piece is one run's share of a fetch batch.
type piece struct {
	run int
	n   int
}

// planFetch performs one I/O decision for demand run j: it nominates a
// piece per disk (inter-run mode), sizes the batch against the cache's
// admission policy, and returns the trimmed batch. The result aliases
// the engine's reusable planning buffers and is valid until the next
// call.
func (e *engine) planFetch(j int) []piece {
	e.decisions++
	depth := e.curN
	e.sumDepth += int64(depth)

	wantJ := min(depth, e.remainingToFetch(j))
	if wantJ <= 0 {
		panic(fmt.Sprintf("core: demand fetch on exhausted run %d", j))
	}
	nominees := append(e.nominees[:0], piece{j, wantJ})
	want := wantJ

	if e.cfg.InterRun {
		home := e.homeDiskOf(j)
		// Under striped placement every run is resident on every disk,
		// so two disks could nominate the same run; picked prevents a
		// run from entering the batch twice.
		e.picked[j] = true
		for d := 0; d < e.cfg.D; d++ {
			if d == home {
				continue
			}
			r := e.choosePrefetchRun(d)
			if r < 0 {
				continue
			}
			e.picked[r] = true
			n := min(depth, e.remainingToFetch(r))
			nominees = append(nominees, piece{r, n})
			want += n
		}
	}
	e.nominees = nominees
	batch := nominees

	adm := e.cfg.Admission.Admit(e.cache, want)
	if adm.Full {
		e.fullPrefetches++
		e.adaptOnAdmit()
	} else {
		e.adaptOnReject()
		// Trim the batch to the admitted size. All-or-demand reduces to
		// the demand block alone; greedy keeps the demand run's piece
		// first and then fills the others in order with what fits.
		budget := adm.Blocks
		batch = e.batchBuf[:0]
		for i := range nominees {
			if budget == 0 {
				break
			}
			n := min(nominees[i].n, budget)
			if i == 0 && adm.Blocks < wantJ {
				n = min(n, adm.Blocks) // demand piece may shrink below N
			}
			batch = append(batch, piece{nominees[i].run, n})
			budget -= n
		}
		e.batchBuf = batch
	}

	if e.cfg.InterRun {
		for _, pc := range nominees {
			e.picked[pc.run] = false
		}
	}
	return batch
}

// homeDiskOf returns the disk that serves run r's demand fetch: its
// home disk for contiguous placements, or the disk holding the next
// block for striped placement.
func (e *engine) homeDiskOf(r int) int {
	if h := e.lay.HomeDisk(r); h >= 0 {
		return h
	}
	next := e.nextFetch[r]
	if next >= e.lay.RunLength(r) {
		next = e.lay.RunLength(r) - 1
	}
	return e.lay.DiskOf(r, next)
}

// choosePrefetchRun picks the run to prefetch on disk d per the
// configured policy, or -1 if no eligible run exists. Runs in e.picked
// (the demand run and runs already in this batch) are never chosen.
func (e *engine) choosePrefetchRun(d int) int {
	eligible := e.eligible[:0]
	for _, r := range e.lay.RunsOnDisk(d) {
		if !e.picked[r] && e.remainingToFetch(r) > 0 {
			eligible = append(eligible, r)
		}
	}
	e.eligible = eligible
	if len(eligible) == 0 {
		return -1
	}
	switch e.cfg.RunPolicy {
	case RandomRun:
		return eligible[e.pick.Intn(len(eligible))]
	case LeastBufferedRun:
		best, bestBuf := -1, int(^uint(0)>>1)
		for _, r := range eligible {
			buf := e.cache.Available(r) + e.inflight[r]
			if buf < bestBuf {
				best, bestBuf = r, buf
			}
		}
		return best
	case RoundRobinRun:
		r := eligible[e.rrNext[d]%len(eligible)]
		e.rrNext[d]++
		return r
	case OracleRun:
		if la, ok := e.model.(workload.Lookahead); ok {
			// The first future depletion naming an eligible run is the
			// most urgent prefetch this disk can make.
			const horizon = 4096
			for _, r := range eligible {
				e.inSet[r] = true
			}
			found := -1
			for i := 0; i < horizon; i++ {
				r, ok := la.Peek(i)
				if !ok {
					break
				}
				if e.inSet[r] {
					found = r
					break
				}
			}
			for _, r := range eligible {
				e.inSet[r] = false
			}
			if found >= 0 {
				return found
			}
		}
		return eligible[e.pick.Intn(len(eligible))]
	default:
		panic("core: unknown prefetch run policy")
	}
}

func (e *engine) result() Result {
	// Close the concurrency window at the finish instant.
	dt := float64(e.finish - e.lastBusyT)
	if dt > 0 {
		e.busyIntegral += float64(e.busyCount) * dt
		if e.busyCount > 0 {
			e.nonZeroTime += dt
		}
		e.lastBusyT = e.finish
	}
	res := Result{
		Config:         e.cfg,
		TotalTime:      e.finish,
		MergedBlocks:   e.cfg.TotalBlocks(),
		Decisions:      e.decisions,
		FullPrefetches: e.fullPrefetches,
		StallTime:      e.stallTime,
		CachePeak:      int64(e.cache.PeakOccupied()),
		MeanDepth:      float64(e.cfg.N),
	}
	if e.decisions > 0 {
		res.MeanDepth = float64(e.sumDepth) / float64(e.decisions)
	}
	if e.finish > 0 {
		res.MeanConcurrency = e.busyIntegral / float64(e.finish)
	}
	if e.nonZeroTime > 0 {
		res.MeanConcurrencyWhenBusy = e.busyIntegral / e.nonZeroTime
	}
	for _, d := range e.disks {
		res.PerDisk = append(res.PerDisk, d.Stats())
		res.Faults.add(d.Stats())
	}
	if e.writer != nil {
		res.WrittenBlocks = e.writer.written
		res.WriteStall = e.writer.writeStall
		if !e.writer.cfg.Shared {
			for _, d := range e.writer.disks {
				res.PerWriteDisk = append(res.PerWriteDisk, d.Stats())
			}
		}
	}
	if e.timeline != nil {
		e.timeline.finish(e.finish)
		res.Timeline = e.timeline.disks
	}
	res.StallHistogram = e.stallHist
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// adaptOnAdmit raises the adaptive depth additively after a streak of
// fully admitted batches.
func (e *engine) adaptOnAdmit() {
	if !e.cfg.AdaptiveN {
		return
	}
	e.admitStreak++
	// Raising on every admit overshoots straight into rejection; a
	// short streak keeps the controller near the knee.
	if e.admitStreak >= 4 && e.curN < e.cfg.N {
		e.curN++
		e.admitStreak = 0
	}
}

// adaptOnReject halves the adaptive depth when a full batch would not
// fit the cache.
func (e *engine) adaptOnReject() {
	if !e.cfg.AdaptiveN {
		return
	}
	e.admitStreak = 0
	if e.curN > 1 {
		e.curN /= 2
	}
}
