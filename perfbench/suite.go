package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/diskcache"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// selfLayers are the modules whose self time the suite reports; "bench"
// is the benchmark's own glue between calls.
var selfLayers = []string{"bench", "experiments", "table", "core", "sim", "disk", "cache", "trace", "explain", "service", "diskcache"}

// suite accumulates the traced run's metrics and outcome.
type suite struct {
	c   config
	tr  *tracer
	m   metrics
	res result
}

// fail records a failed operation and marks the run incorrect.
func (s *suite) fail(group string, err error) {
	s.res.Failed++
	s.res.Correct = false
	fmt.Fprintf(os.Stderr, "%s: %v\n", group, err)
}

// runSuite is the traced run. Whatever the workload, it drives every
// layer group once with a span around each public call, so every
// per-layer metric is measured in every traced run; the workload only
// names the span file.
func runSuite(c config) (result, error) {
	s := &suite{c: c, tr: newTracer(), m: metrics{}, res: result{Correct: true}}
	root := s.tr.begin(0, "bench.suite")
	for _, group := range []func(int) error{s.figures, s.explain, s.simd} {
		if err := group(root); err != nil {
			return result{}, err
		}
	}
	s.tr.end(root)

	self := s.tr.selfTimes()
	for _, l := range selfLayers {
		s.m.set("self_s."+l, "s", self[l])
	}
	path := filepath.Join(filepath.Dir(c.work), fmt.Sprintf("spans-%s-%d.csv", c.workload, c.seed))
	if err := s.tr.writeFile(path); err != nil {
		return result{}, err
	}
	s.res.Metrics = s.m
	return s.res, nil
}

// figures is the simulation group: one traced regeneration, the specs
// again one at a time at Workers=1, the headline strategies through
// core.Run, and closed-loop probes of sim, disk and cache.
func (s *suite) figures(root int) error {
	gid := s.tr.begin(root, "bench.figures")
	defer s.tr.end(gid)
	opts := experiments.DefaultOptions()
	if !s.c.suiteFigures {
		opts = experiments.Options{Quick: true, Trials: 1, Seed: 1}
	}
	var st *figuresState
	if _, err := s.tr.do(gid, "experiments.warmup", func(int) error {
		var err error
		st, err = setupFigures(s.c)
		return err
	}); err != nil {
		return err
	}
	t0 := time.Now()
	csvs, figs, err := st.regenerate(s.tr, gid, opts)
	if err != nil {
		return err
	}
	figuresS := time.Since(t0).Seconds()
	s.res.Attempted++
	if s.c.suiteFigures {
		if err := checkFigures(csvs, st.golden); err != nil {
			s.fail("paper-figures", err)
		}
	}
	write, err := s.tr.do(gid, "table.WriteCSV+WriteSVG", func(int) error {
		for _, f := range figs {
			if err := f.WriteCSV(io.Discard); err != nil {
				return err
			}
			if err := f.WriteSVG(io.Discard, 720, 460); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.m.set("table.write_s", "s", write.Seconds())

	serial := opts
	serial.Workers = 1
	var serialS float64
	for _, id := range paperSpecs {
		spec, err := experiments.Find(id)
		if err != nil {
			return err
		}
		d, err := s.tr.do(gid, "experiments.Spec.Run "+id, func(int) error {
			_, err := spec.Run(serial)
			return err
		})
		if err != nil {
			return err
		}
		s.m.set("experiments.spec_s."+id, "s", d.Seconds())
		serialS += d.Seconds()
	}
	s.m.set("experiments.serial_s", "s", serialS)
	s.m.set("parallel.speedup", "ratio", serialS/figuresS)

	var blocks int64
	var runD time.Duration
	for _, st := range headlineStrategies() {
		d, err := s.tr.do(gid, "core.Run", func(int) error {
			r, err := core.Run(st)
			blocks += r.MergedBlocks
			return err
		})
		if err != nil {
			return err
		}
		runD += d
	}
	s.m.set("core.run_ns_per_block", "ns", float64(runD.Nanoseconds())/float64(blocks))
	return s.probes(gid)
}

// headlineStrategies are the paper's five strategies at k=25, D=5:
// no prefetch, intra-run unsynchronized and synchronized, inter-run
// unsynchronized and synchronized.
func headlineStrategies() []core.Config {
	var cfgs []core.Config
	for _, v := range []struct {
		n           int
		inter, sync bool
	}{{1, false, false}, {10, false, false}, {10, false, true}, {10, true, false}, {10, true, true}} {
		cfg := core.Default()
		cfg.N, cfg.InterRun, cfg.Synchronized = v.n, v.inter, v.sync
		cfg.CacheBlocks = cfg.DefaultCache()
		if v.inter {
			cfg.CacheBlocks = cache.Unlimited
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// probes times the three lowest layers in closed loops: kernel timer
// events, single-block disk requests resubmitted from their own
// delivery, and cache reserve→deposit→consume cycles.
func (s *suite) probes(gid int) error {
	n := s.c.probeEvents
	d, err := s.tr.do(gid, "sim.Kernel.Run", func(int) error {
		k := sim.New()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < n {
				k.After(1, tick)
			}
		}
		k.After(1, tick)
		return k.Run()
	})
	if err != nil {
		return err
	}
	s.m.set("sim.ns_per_event", "ns", float64(d.Nanoseconds())/float64(n))

	reqs := max(1, n/4)
	d, err = s.tr.do(gid, "disk.SubmitNoWait", func(int) error {
		k := sim.New()
		dk, err := disk.New(k, 0, disk.PaperParams(), rng.New(s.c.seed))
		if err != nil {
			return err
		}
		count := 0
		req := disk.Request{Count: 1}
		req.OnBlock = func(int, sim.Time) {
			count++
			if count < reqs {
				req.Start = (count * 37) % 1000
				dk.SubmitNoWait(&req)
			}
		}
		dk.SubmitNoWait(&req)
		return k.Run()
	})
	if err != nil {
		return err
	}
	s.m.set("disk.ns_per_request", "ns", float64(d.Nanoseconds())/float64(reqs))

	d, err = s.tr.do(gid, "cache.Reserve+Deposit+Consume", func(int) error {
		const runs = 8
		c, err := cache.New(64, runs)
		if err != nil {
			return err
		}
		var next [runs]int
		for i := 0; i < n; i++ {
			r := i % runs
			if !c.Reserve(1) {
				return errors.New("cache probe: reserve refused")
			}
			c.Deposit(r, next[r])
			next[r]++
			c.Consume(r)
		}
		return c.Invariant()
	})
	if err != nil {
		return err
	}
	s.m.set("cache.ns_per_cycle", "ns", float64(d.Nanoseconds())/float64(n))
	return nil
}

// explain is the introspection group: the reference trace through the
// pipeline with a span per call, plus the same shape at fewer blocks
// per run for the Build scaling ratio.
func (s *suite) explain(root int) error {
	gid := s.tr.begin(root, "bench.explain")
	defer s.tr.end(gid)
	cfg := explainConfig(s.c.seed, s.c.explainBlocks)
	var untraced core.Result
	du, err := s.tr.do(gid, "core.Run", func(int) error {
		var err error
		untraced, err = core.Run(cfg)
		return err
	})
	if err != nil {
		return err
	}
	// The traced pass starts after a forced GC and is costed in CPU
	// seconds, as a trace-explain unit is.
	var p *pipeline
	tracedCPU, err := unitCPU(func() error {
		pid := s.tr.begin(gid, "bench.pipeline")
		defer s.tr.end(pid)
		var err error
		p, err = runPipeline(s.tr, pid, cfg)
		return err
	})
	if err != nil {
		return err
	}
	s.res.Attempted++
	if err := p.gate(untraced); err != nil {
		s.fail("trace-explain", err)
	}
	if share := p.callsCPU.Seconds() / tracedCPU.Seconds(); share < 0.95 {
		s.fail("trace-explain", fmt.Errorf("the timed calls cost %.3f of their pass, want at least 0.95", share))
	}
	text, err := s.tr.do(gid, "explain.WriteText", func(int) error { return p.rep.WriteText(io.Discard) })
	if err != nil {
		return err
	}

	events := p.rec.Len()
	cpu, pre, dsk := len(p.rec.CPUSpans()), len(p.rec.PrefetchSpans()), len(p.rec.DiskSpans())
	s.m.set("core.untraced_run_s", "s", du.Seconds())
	s.m.set("core.traced_run_s", "s", p.run.Seconds())
	s.m.set("trace.overhead_ratio", "ratio", p.run.Seconds()/du.Seconds())
	s.m.set("trace.events", "count", float64(events))
	s.m.set("trace.cpu_spans", "count", float64(cpu))
	s.m.set("trace.prefetch_spans", "count", float64(pre))
	s.m.set("trace.disk_spans", "count", float64(dsk))
	s.m.set("trace.csv_mib", "MiB", float64(len(p.csv))/(1<<20))
	s.m.set("trace.write_csv_s", "s", p.write.Seconds())
	s.m.set("trace.write_csv_ns_per_event", "ns", float64(p.write.Nanoseconds())/float64(events))
	s.m.set("trace.read_csv_s", "s", p.read.Seconds())
	s.m.set("trace.read_csv_ns_per_event", "ns", float64(p.read.Nanoseconds())/float64(events))
	s.m.set("explain.build_s", "s", p.build.Seconds())
	s.m.set("explain.build_ns_per_span", "ns", float64(p.build.Nanoseconds())/float64(cpu+pre+dsk))
	s.m.set("explain.check_s", "s", p.check.Seconds())
	s.m.set("explain.write_text_s", "s", text.Seconds())
	s.m.set("explain.pipeline_s", "s", p.total.Seconds())

	half := explainConfig(s.c.seed, s.c.scalingBlocks)
	rec := trace.New(0)
	half.Trace = rec
	var hres core.Result
	if _, err := s.tr.do(gid, "core.Run", func(int) error {
		var err error
		hres, err = core.Run(half)
		return err
	}); err != nil {
		return err
	}
	db, _ := s.tr.do(gid, "explain.Build", func(int) error {
		explain.Build(rec, explain.Options{Makespan: hres.TotalTime})
		return nil
	})
	s.m.set("explain.build_scaling", "ratio", p.build.Seconds()/db.Seconds())

	// The untraced twin runs last, once the traced pass's trace and
	// report are garbage, so the collector marks no more live heap in
	// it than in a trace-explain unit.
	callsCPU := p.callsCPU
	p = nil
	var untracedCPU time.Duration
	if _, err := s.tr.do(gid, "bench.untraced-pipeline", func(int) error {
		var err error
		untracedCPU, err = unitCPU(func() error {
			_, err := runPipeline(nil, 0, cfg)
			return err
		})
		return err
	}); err != nil {
		return err
	}
	s.m.set("explain.pipeline_coverage", "ratio", callsCPU.Seconds()/untracedCPU.Seconds())
	s.m.set("bench.trace_overhead_ratio", "ratio", tracedCPU.Seconds()/untracedCPU.Seconds())
	return nil
}

// simd is the serving group: the replay with a span per HTTP request,
// once on an empty cache and once more after a restart, then
// in-process probes of the layers under it.
func (s *suite) simd(root int) error {
	gid := s.tr.begin(root, "bench.simd")
	defer s.tr.end(gid)
	var st *simdState
	if _, err := s.tr.do(gid, "service.setup", func(int) error {
		var err error
		st, err = setupSimd(s.c)
		return err
	}); err != nil {
		return err
	}
	defer st.close()
	outs := st.loop(s.tr, gid)
	if _, err := s.tr.do(gid, "service.restart", func(int) error { return st.restart() }); err != nil {
		return err
	}
	outs = append(outs, st.loop(s.tr, gid)...)
	failed, first := tally(outs)
	s.res.Attempted += len(outs)
	s.res.Failed += failed
	if first != nil {
		s.res.Correct = false
		fmt.Fprintln(os.Stderr, "serving:", first)
	}
	if err := st.seen.crossCheck(s.c.seed, s.c.simd.samples); err != nil {
		s.fail("serving", err)
	}
	byCache := map[string]int{}
	var missed []string
	for _, o := range outs {
		if o.err == nil {
			byCache[o.cache]++
			if o.cache == "miss" {
				missed = append(missed, o.key)
			}
		}
	}
	total := float64(len(outs))
	s.m.set("service.requests", "count", total)
	s.m.set("service.mem_hit_ratio", "ratio", float64(byCache["hit"])/total)
	s.m.set("service.disk_hit_ratio", "ratio", float64(byCache["hit-disk"])/total)
	s.m.set("service.miss_ratio", "ratio", float64(byCache["miss"])/total)
	s.m.set("service.shared_ratio", "ratio", float64(byCache["shared"])/total)
	hitUs := 1e6 * median(latencies(outs, "hit"))
	missUs := 1e6 * median(latencies(outs, "miss"))
	s.m.set("service.hit_p50_us", "us", hitUs)
	s.m.set("service.disk_hit_p50_us", "us", 1e6*median(latencies(outs, "hit-disk")))
	s.m.set("service.miss_p50_us", "us", missUs)

	ctx := context.Background()
	// The probe's key is the last one the loop was served from memory.
	i := len(outs) - 1
	for i >= 0 && (outs[i].err != nil || outs[i].cache != "hit") {
		i--
	}
	if i < 0 {
		return errors.New("serving: no request was a memory hit")
	}
	var hot service.SimulateRequest
	if err := json.Unmarshal([]byte(outs[i].key), &hot); err != nil {
		return err
	}
	body, _, err := st.svc.Simulate(ctx, hot)
	if err != nil {
		return err
	}
	const calls = 2000
	inproc := make([]float64, 0, calls)
	if _, err := s.tr.do(gid, "service.Simulate", func(int) error {
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			_, status, err := st.svc.Simulate(ctx, hot)
			inproc = append(inproc, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			if status != service.CacheHit {
				return fmt.Errorf("in-process repeat served as %q", status)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	inprocUs := 1e6 * median(inproc)
	s.m.set("service.inproc_hit_us", "us", inprocUs)
	s.m.set("service.http_overhead_us", "us", hitUs-inprocUs)

	getUs, putUs, err := s.diskcacheProbe(gid, body)
	if err != nil {
		return err
	}
	s.m.set("diskcache.get_us", "us", getUs)
	s.m.set("diskcache.put_us", "us", putUs)

	engineUs, err := s.missProbe(gid, st.seen, missed)
	if err != nil {
		return err
	}
	s.m.set("core.miss_run_us", "us", engineUs)
	s.m.set("service.miss_overhead_us", "us", missUs-engineUs-putUs)
	return nil
}

// missProbe runs core.RunTrials on a seeded sample of the requests the
// loop was served as misses, checks each result against the served
// body, and returns the median engine time in µs.
func (s *suite) missProbe(gid int, seen *bodies, missed []string) (float64, error) {
	keys := sample(missed, s.c.seed, 4*s.c.simd.samples)
	engine := make([]float64, 0, len(keys))
	_, err := s.tr.do(gid, "core.RunTrials", func(int) error {
		for _, k := range keys {
			var req service.SimulateRequest
			if err := json.Unmarshal([]byte(k), &req); err != nil {
				return err
			}
			cfg, err := engineConfig(req)
			if err != nil {
				return err
			}
			t0 := time.Now()
			agg, err := core.RunTrials(cfg, max(1, req.Trials))
			engine = append(engine, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			b, err := json.Marshal(core.NewResultJSON(agg))
			if err != nil {
				return err
			}
			seen.mu.Lock()
			want := seen.seen[k]
			seen.mu.Unlock()
			if !bytes.Equal(b, want) {
				return fmt.Errorf("%s: core.RunTrials differs from the served body", k)
			}
		}
		return nil
	})
	return 1e6 * median(engine), err
}

// diskcacheProbe times Put (fsync included) and Get of real response
// bodies on a fresh disk tier and returns their medians in µs.
func (s *suite) diskcacheProbe(gid int, body []byte) (getUs, putUs float64, err error) {
	dir, err := os.MkdirTemp(s.c.work, "diskcache-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	dc, err := diskcache.Open(diskcache.Options{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer dc.Close()
	const n = 200
	puts, gets := make([]float64, 0, n), make([]float64, 0, n)
	if _, err := s.tr.do(gid, "diskcache.Put", func(int) error {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			dc.Put(fmt.Sprintf("perfbench/%d", i), body)
			puts = append(puts, time.Since(t0).Seconds())
		}
		if dc.Len() != n {
			return fmt.Errorf("diskcache probe: %d entries stored, want %d", dc.Len(), n)
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	if _, err := s.tr.do(gid, "diskcache.Get", func(int) error {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			_, _, ok := dc.Get(fmt.Sprintf("perfbench/%d", i))
			gets = append(gets, time.Since(t0).Seconds())
			if !ok {
				return fmt.Errorf("diskcache probe: entry %d not served", i)
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	return 1e6 * median(gets), 1e6 * median(puts), nil
}

// runtimeProcs is the CPUs the process may use: the closed loop runs
// one client per CPU, never more than nproc.
func runtimeProcs() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }
