package explain

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestBuildWorkLinear pins Build's complexity with a deterministic work
// count instead of a clock: doubling the blocks per run of the
// reference shape (k=50, D=10, N=1, 0.3 ms/block merge CPU) doubles the
// stalls, prefetches and disk spans, so a per-stall scan would
// quadruple its work while the indexed attribution may only roughly
// double it.
func TestBuildWorkLinear(t *testing.T) {
	measure := func(blocks int) (work, quadratic int) {
		cfg := core.Default()
		cfg.K, cfg.D, cfg.N = 50, 10, 1
		cfg.BlocksPerRun = blocks
		cfg.MergeTimePerBlock = sim.Ms(0.3)
		cfg.CacheBlocks = cfg.DefaultCache()
		cfg.Seed = 1
		rec := trace.New(0)
		cfg.Trace = rec
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, work := build(rec, Options{Makespan: res.TotalTime})
		if rep.Stall.Unattributed != 0 {
			t.Fatalf("blocks %d: %v ms of stall unattributed", blocks, rep.Stall.Unattributed)
		}
		stalls := 0
		for _, s := range rec.CPUSpans() {
			if s.Run >= 0 {
				stalls++
			}
		}
		return work, stalls * (len(rec.PrefetchSpans()) + len(rec.DiskSpans()))
	}
	work1, quad1 := measure(100)
	work2, quad2 := measure(200)
	if q := float64(quad2) / float64(quad1); q < 3.5 {
		t.Fatalf("doubling blocks/run grew stalls×spans only %.2f×; the trace did not double", q)
	}
	w := float64(work2) / float64(work1)
	t.Logf("work %d → %d steps (%.2f×); stalls×spans %.2f×", work1, work2, w, float64(quad2)/float64(quad1))
	if w > 2.5 {
		t.Fatalf("doubling the trace multiplied Build's work by %.2f× (%d → %d steps), want ≤ 2.5×", w, work1, work2)
	}
}

// TestBuildAllocBounded pins Build's allocation to its input: every
// bucket is counted before it is filled, so Build allocates a small
// multiple of the span bytes it reads. On this trace (k=50, D=10, N=1,
// 200 blocks/run) it allocated 0.79× the span bytes, and 3.11× when the
// buckets grew by append; the bound sits between the two.
func TestBuildAllocBounded(t *testing.T) {
	cfg := core.Default()
	cfg.K, cfg.D, cfg.N = 50, 10, 1
	cfg.BlocksPerRun = 200
	cfg.MergeTimePerBlock = sim.Ms(0.3)
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.Seed = 1
	rec := trace.New(0)
	cfg.Trace = rec
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spanBytes := len(rec.DiskSpans())*int(unsafe.Sizeof(trace.DiskSpan{})) +
		len(rec.CPUSpans())*int(unsafe.Sizeof(trace.CPUSpan{})) +
		len(rec.PrefetchSpans())*int(unsafe.Sizeof(trace.PrefetchSpan{})) +
		len(rec.CacheSamples())*int(unsafe.Sizeof(trace.CacheSample{})) +
		len(rec.QueueSamples())*int(unsafe.Sizeof(trace.QueueSample{})) +
		len(rec.Marks())*int(unsafe.Sizeof(trace.Mark{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Build(rec, Options{Makespan: res.TotalTime})
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(spanBytes)
	t.Logf("Build allocated %.2f× its %d span bytes", ratio, spanBytes)
	if ratio > 1.5 {
		t.Fatalf("Build allocated %.2f× its %d span bytes, want ≤ 1.5", ratio, spanBytes)
	}
}

// TestStepDistributionOutOfOrder: samples out of chronological order
// (a hand-made trace file) are read as their stable sort by instant,
// and the caller's slice is left as it was.
func TestStepDistributionOutOfOrder(t *testing.T) {
	sorted := []trace.CacheSample{{At: 0, Occupied: 1}, {At: 2, Occupied: 3}, {At: 2, Occupied: 5}, {At: 6, Occupied: 0}}
	shuffled := []trace.CacheSample{sorted[3], sorted[1], sorted[0], sorted[2]}
	kept := append([]trace.CacheSample(nil), shuffled...)
	want := stepDistribution(sorted, cacheAt, cacheOccupied, 10)
	if got := stepDistribution(shuffled, cacheAt, cacheOccupied, 10); got != want {
		t.Errorf("out of order: %+v, want %+v", got, want)
	}
	for i := range kept {
		if shuffled[i] != kept[i] {
			t.Fatalf("stepDistribution reordered its input: %+v, want %+v", shuffled, kept)
		}
	}
}

// TestCascadeTiers drives each tier of the blocking-fetch cascade and
// its tie-breaks on a hand-built trace, including a stall whose end
// goes backwards (the tier-1 cursors must reset rather than trust the
// order), and the jitter-overlapping phase spans decompose must sum.
func TestCascadeTiers(t *testing.T) {
	r := trace.New(0)
	r.Track(trace.CPUTrack, "cpu")
	r.Track(1, "disk 0")
	r.Track(2, "disk 1")
	r.DiskPhase(1, trace.PhaseSeek, 0, 5)
	transferEnd, rotationStart := sim.Time(10.2), sim.Time(10.1999)
	r.DiskPhase(1, trace.PhaseTransfer, 5, transferEnd)
	r.DiskPhase(1, trace.PhaseRotation, rotationStart, 12)
	r.DiskPhase(1, trace.PhaseSeek, 20, 21)

	r.Prefetch(1, 5, 1, 1, 11)   // g0
	r.Prefetch(2, 5, 1, 2, 14)   // g1
	r.Prefetch(2, 7, 1, 4, 22)   // h0: ties h1 on Done, lower record index
	r.Prefetch(1, 7, 1, 3, 22)   // h1: earlier issue, same Done
	r.Prefetch(2, 8, 1, 6, 40)   // k0: done at a stall's end, other run
	r.Prefetch(1, 9, 1, 5, 40)   // k1: same Done, earlier issue
	r.Prefetch(2, 12, 1, 42, 44) // m2: earliest issue but done before the end
	r.Prefetch(1, 12, 1, 43, 50) // m0: in flight, ties m1 on Issued
	r.Prefetch(2, 12, 1, 43, 49) // m1
	r.Prefetch(2, 13, 1, 50, 55) // n0: ties n1 on Done, first in both orders
	r.Prefetch(1, 13, 1, 51, 55) // n1

	r.CPUStallOn(5, 13, 15)   // tier 3: g0, g1 both done inside; latest done g1
	r.CPUStallOn(5, 10, 10.5) // end went backwards: tier 1 earliest issue g0
	r.CPUStallOn(7, 21, 23)   // tier 3 tie on Done: record order h0
	r.CPUStallOn(10, 35, 40)  // tier 2: earliest-issued k1
	r.CPUStallOn(11, 41, 42)  // nothing matches
	r.CPUStallOn(12, 44, 45)  // tier 1: skip m2, tie on Issued → m0
	r.CPUStallOn(13, 54, 56)  // tier 3 tie on Done: record order n0

	rep := Build(r, Options{Makespan: 100, TopChains: 100})
	want := map[sim.Time]struct {
		disk   string
		issued sim.Time
	}{
		13: {"disk 1", 2},
		10: {"disk 0", 1},
		21: {"disk 1", 4},
		35: {"disk 0", 5},
		41: {"", 41},
		44: {"disk 0", 43},
		54: {"disk 1", 50},
	}
	if len(rep.Chains) != len(want) {
		t.Fatalf("%d chains, want %d", len(rep.Chains), len(want))
	}
	for _, c := range rep.Chains {
		w, ok := want[c.Start]
		if !ok || c.Disk != w.disk || c.Issued != w.issued {
			t.Errorf("stall at %v: blocked on %q issued %v, want %q issued %v", c.Start, c.Disk, c.Issued, w.disk, w.issued)
		}
		if c.Start != 10 {
			continue
		}
		wantPhases := PhaseBreakdown{Transfer: transferEnd - 10, Rotation: 10.5 - rotationStart}
		if c.Phases != wantPhases || c.Queued != 0 {
			t.Errorf("stall at 10: phases %+v queued %v, want %+v queued 0", c.Phases, c.Queued, wantPhases)
		}
	}
	if rep.Stall.Unattributed != 1 {
		t.Errorf("unattributed %v, want 1", rep.Stall.Unattributed)
	}
}

// TestChainHeapMatchesStableSort: bounded selection returns exactly the
// prefix a stable sort of every chain would, ties included.
func TestChainHeapMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	chains := make([]Chain, 200)
	for i := range chains {
		chains[i] = Chain{
			Run:      rng.Intn(4),
			Start:    sim.Time(rng.Intn(6)),
			Duration: sim.Time(rng.Intn(5)),
			Issued:   sim.Time(i), // tells equal-key chains apart
		}
	}
	sorted := append([]Chain(nil), chains...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Duration != b.Duration {
			return a.Duration > b.Duration
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Run < b.Run
	})
	for _, max := range []int{1, 2, 5, 17, 199, 200, 500} {
		h := chainHeap{max: max}
		for i, c := range chains {
			h.offer(rankedChain{c, i})
		}
		got := h.ranked()
		want := sorted[:min(max, len(sorted))]
		if len(got) != len(want) {
			t.Fatalf("max %d: %d chains, want %d", max, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("max %d: chain %d = %+v, want %+v", max, i, got[i], want[i])
			}
		}
	}
}
