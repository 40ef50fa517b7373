// Package repro's benchmark harness regenerates every figure of the
// paper's evaluation (§3) under `go test -bench`. Each BenchmarkFigXX
// runs the corresponding experiment generator; per-iteration wall time
// is the cost of regenerating that panel. The reported custom metrics
// surface the headline simulated quantities so bench output alone tells
// the paper's story:
//
//	sim-seconds   simulated merge time of the panel's reference point
//	overlap       average number of concurrently busy disks
//	success       prefetch success ratio
//
// Micro-benchmarks for the substrates (kernel, disk, cache, loser tree)
// follow the figure benches.
package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/extsort"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchOpts keeps figure regeneration affordable under -bench: one
// trial, coarse grids. Full-fidelity regeneration is cmd/figures.
func benchOpts() experiments.Options {
	return experiments.Options{Trials: 1, Seed: 1, Quick: true}
}

// runFigure benchmarks one experiment generator.
func runFigure(b *testing.B, id string) {
	b.Helper()
	spec, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := spec.Run(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig32a(b *testing.B) { runFigure(b, "3.2a") }
func BenchmarkFig32b(b *testing.B) { runFigure(b, "3.2b") }
func BenchmarkFig32c(b *testing.B) { runFigure(b, "3.2c") }
func BenchmarkFig33(b *testing.B)  { runFigure(b, "3.3") }

// Figures 3.5 and 3.6 are produced by the same cache sweep.
func BenchmarkFig35aFig36a(b *testing.B) { runFigure(b, "3.5a") }
func BenchmarkFig35bFig36b(b *testing.B) { runFigure(b, "3.5b") }
func BenchmarkFig35cFig36c(b *testing.B) { runFigure(b, "3.5c") }

func BenchmarkAnchorValidation(b *testing.B)  { runFigure(b, "anchors") }
func BenchmarkUrnConcurrency(b *testing.B)    { runFigure(b, "concurrency") }
func BenchmarkAblationAdmission(b *testing.B) { runFigure(b, "ablation-admission") }
func BenchmarkAblationRunChoice(b *testing.B) { runFigure(b, "ablation-runchoice") }
func BenchmarkAblationRotation(b *testing.B)  { runFigure(b, "ablation-rotation") }
func BenchmarkAblationPlacement(b *testing.B) { runFigure(b, "ablation-placement") }
func BenchmarkAblationScheduler(b *testing.B) { runFigure(b, "ablation-scheduler") }
func BenchmarkAblationSeekModel(b *testing.B) { runFigure(b, "ablation-seekmodel") }
func BenchmarkExtWriteTraffic(b *testing.B)   { runFigure(b, "ext-write-traffic") }
func BenchmarkExtMultiPass(b *testing.B)      { runFigure(b, "ext-multipass") }
func BenchmarkTRMarkov(b *testing.B)          { runFigure(b, "tr-markov") }
func BenchmarkExtRealTrace(b *testing.B)      { runFigure(b, "ext-realtrace") }
func BenchmarkExtAdaptiveN(b *testing.B)      { runFigure(b, "ext-adaptive-n") }
func BenchmarkExtK100(b *testing.B)           { runFigure(b, "ext-k100") }
func BenchmarkExtModernDisk(b *testing.B)     { runFigure(b, "ext-modern-disk") }
func BenchmarkExtDegradedDisk(b *testing.B)   { runFigure(b, "ext-degraded-disk") }
func BenchmarkExtStallAttribution(b *testing.B) {
	runFigure(b, "ext-stall-attribution")
}

// BenchmarkAllFiguresQuick regenerates the entire quick figure set
// through the parallel sweep executor — the figure-level macro number
// that the per-panel benches above break down. It is the bench-side
// twin of `figures -quick`: specs fan out concurrently and every
// spec's points×trials grid saturates the worker pool.
func BenchmarkAllFiguresQuick(b *testing.B) {
	specs := experiments.All()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(specs, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStrategy times one full simulated merge at the paper's headline
// shape and reports the simulated quantities as custom metrics.
func benchStrategy(b *testing.B, n int, inter, sync bool) {
	b.Helper()
	cfg := core.Default()
	cfg.N = n
	cfg.InterRun = inter
	cfg.Synchronized = sync
	if inter {
		cfg.CacheBlocks = cache.Unlimited
	} else {
		cfg.CacheBlocks = cfg.DefaultCache()
	}
	var last core.Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TotalTime.Seconds(), "sim-seconds")
	b.ReportMetric(last.MeanConcurrencyWhenBusy, "overlap")
	b.ReportMetric(last.SuccessRatio(), "success")
}

func BenchmarkMergeNoPrefetch(b *testing.B)  { benchStrategy(b, 1, false, false) }
func BenchmarkMergeIntraUnsync(b *testing.B) { benchStrategy(b, 10, false, false) }
func BenchmarkMergeIntraSync(b *testing.B)   { benchStrategy(b, 10, false, true) }
func BenchmarkMergeInterUnsync(b *testing.B) { benchStrategy(b, 10, true, false) }
func BenchmarkMergeInterSync(b *testing.B)   { benchStrategy(b, 10, true, true) }

// BenchmarkKernelEvents measures raw event throughput of the DES
// substrate.
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelEventsTraced is the zero-overhead guard for the
// tracing subsystem: the same event loop as BenchmarkKernelEvents with
// a trace.Recorder installed on the kernel. Timer-event dispatch has no
// tracer hook — recording happens at the merge's lifecycle marks and in
// the model layer (disk, engine, cache) — so this must match
// BenchmarkKernelEvents within noise.
func BenchmarkKernelEventsTraced(b *testing.B) {
	k := sim.New()
	k.SetTracer(trace.New(1024))
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExplainReport measures the offline trace-analytics pass:
// one full stall-attribution report built (and conservation-checked)
// per iteration from a pre-recorded trace of a faulty, write-enabled
// merge. Tracing itself stays out of the loop — explain is pure
// post-processing, so untraced simulations pay nothing for it (the
// KernelEvents vs KernelEventsTraced pair above guards the recording
// side).
func BenchmarkExplainReport(b *testing.B) {
	cfg := core.Default()
	cfg.K = 8
	cfg.D = 4
	cfg.N = 3
	cfg.BlocksPerRun = 60
	cfg.InterRun = true
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.MergeTimePerBlock = sim.Ms(0.1)
	cfg.Seed = 42
	rec := trace.New(0)
	cfg.Trace = rec
	res, err := core.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
		if err := rep.Check(res.StallTime); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceTrace records the reference trace that `mergesim -k 50 -d 10
// -n 1 -merge-ms 0.3 -trace x.csv -trace-format csv` writes (1000
// blocks/run, natural cache, seed 1): ~490k events.
func referenceTrace(b *testing.B) *trace.Recorder {
	b.Helper()
	cfg := core.Default()
	cfg.K = 50
	cfg.D = 10
	cfg.N = 1
	cfg.BlocksPerRun = 1000
	cfg.MergeTimePerBlock = sim.Ms(0.3)
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.Seed = 1
	rec := trace.New(0)
	cfg.Trace = rec
	if _, err := core.Run(cfg); err != nil {
		b.Fatal(err)
	}
	return rec
}

// BenchmarkTraceWriteCSV measures the trace CSV exporter on the
// reference trace; ns/event is per exported row.
func BenchmarkTraceWriteCSV(b *testing.B) {
	rec := referenceTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rec.Len()), "ns/event")
}

// BenchmarkTraceReadCSV measures reading the reference trace's CSV
// back into a Recorder; ns/event is per row read.
func BenchmarkTraceReadCSV(b *testing.B) {
	rec := referenceTrace(b)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rec.Len()), "ns/event")
}

// BenchmarkDiskRequest measures single-block request service overhead:
// one pooled Request is resubmitted from its own OnBlock in a closed
// loop, the way the merge engine drives disks.
// Steady state must be zero-alloc (CI fails the build otherwise).
func BenchmarkDiskRequest(b *testing.B) {
	k := sim.New()
	d, err := disk.New(k, 0, disk.PaperParams(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	req := disk.Request{Count: 1}
	req.OnBlock = func(i int, at sim.Time) {
		n++
		if n < b.N {
			req.Start = (n * 37) % 1000
			d.SubmitNoWait(&req)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	d.SubmitNoWait(&req)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCacheOps measures the reserve/deposit/consume cycle.
func BenchmarkCacheOps(b *testing.B) {
	c, err := cache.New(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if !c.Reserve(1) {
			b.Fatal("reserve failed")
		}
		c.Deposit(0, i)
		c.Consume(0)
	}
}

// BenchmarkLoserTreeMerge measures the real k-way record merge.
func BenchmarkLoserTreeMerge(b *testing.B) {
	cfg := extsort.Config{RecordSize: 8, BlockSize: 4096, MemoryBlocks: 8, Formation: extsort.LoadSort}
	r := rng.New(3)
	const records = 64 * 1024
	data := make([]byte, records*8)
	for i := 0; i < len(data); i += 8 {
		binary.BigEndian.PutUint64(data[i:], r.Uint64())
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := extsort.NewSliceReader(data, 8)
		if err != nil {
			b.Fatal(err)
		}
		store := extsort.NewMemStore()
		if _, err := extsort.FormRuns(cfg, in, store); err != nil {
			b.Fatal(err)
		}
		if _, err := extsort.Merge(cfg, store, discardWriter{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(rec []byte) error { _, _ = io.Discard.Write(rec); return nil }

// benchService builds a daemon-less service instance over a small fast
// configuration. The cold benchmark varies the seed so every iteration
// misses the cache and pays for a full engine run; the cached benchmark
// repeats one request so every iteration after the first is a pure
// cache lookup. The gap between the two is the value of the result
// cache per request.
func benchService(b *testing.B) *service.Service {
	b.Helper()
	return service.New(service.Options{CacheEntries: b.N + 1})
}

func benchServiceReq(seed uint64) service.SimulateRequest {
	return service.SimulateRequest{K: 4, D: 2, N: 2, BlocksPerRun: 40, Seed: seed, Trials: 1}
}

func BenchmarkServiceSimulateCold(b *testing.B) {
	svc := benchService(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.Simulate(ctx, benchServiceReq(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = svc.Drain(ctx)
}

func BenchmarkServiceSimulateCached(b *testing.B) {
	svc := benchService(b)
	ctx := context.Background()
	if _, _, err := svc.Simulate(ctx, benchServiceReq(1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, status, err := svc.Simulate(ctx, benchServiceReq(1))
		if err != nil {
			b.Fatal(err)
		}
		if status != service.CacheHit {
			b.Fatalf("X-Cache = %v, want hit", status)
		}
		_ = body
	}
	b.StopTimer()
	_ = svc.Drain(ctx)
}

// BenchmarkOptimizeSmallGrid runs one full small-grid configuration
// search per iteration: 4 candidates (prefetch depth x strategy) over
// a tiny merge, evaluated through the service's cache + singleflight
// path. The template seed varies per iteration so every search is
// cold — this prices the search harness plus four engine runs, the
// worst case a /v1/optimize request pays. The cache-served metric
// reports how much of the work the result cache absorbed across the
// whole benchmark (revisit-free grids stay at 0 when cold).
func BenchmarkOptimizeSmallGrid(b *testing.B) {
	svc := benchService(b)
	ctx := context.Background()
	served, evals := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := service.OptimizeRequest{
			Template: &service.SimulateRequest{K: 4, D: 2, BlocksPerRun: 40, Seed: uint64(i) + 1},
			Space: service.OptimizeSpaceRequest{
				N:           &service.DimensionRequest{Values: []int{1, 2}},
				CacheBlocks: &service.DimensionRequest{Values: []int{0}},
				Strategies:  []string{"intra-unsync", "inter-unsync"},
			},
		}
		body, s, e, err := svc.Optimize(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		served += s
		evals += e
		_ = body
	}
	b.StopTimer()
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(served)/float64(b.N), "cache-served/op")
	_ = svc.Drain(ctx)
}
