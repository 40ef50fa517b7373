package explain_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// abConfigs mirrors the engine's golden matrix from internal/core's
// golden_test.go: every synchronization mode, placement, queue
// discipline, rotational model, run policy, admission policy, writer
// mode, fault flavour, and workload family. The conservation invariant
// must hold on every point the engine is pinned on.
func abConfigs() map[string]core.Config {
	small := func() core.Config {
		cfg := core.Default()
		cfg.K, cfg.D, cfg.BlocksPerRun = 8, 4, 60
		cfg.CacheBlocks = cfg.DefaultCache()
		return cfg
	}
	cfgs := map[string]core.Config{}

	cfgs["no-prefetch"] = small()

	c := small()
	c.N = 4
	c.Synchronized = true
	c.CacheBlocks = c.DefaultCache()
	cfgs["intra-sync"] = c

	c = small()
	c.N = 4
	c.CacheBlocks = c.DefaultCache()
	cfgs["intra-unsync"] = c

	c = small()
	c.N = 3
	c.InterRun = true
	c.Synchronized = true
	c.CacheBlocks = c.DefaultCache()
	cfgs["inter-sync"] = c

	c = small()
	c.N = 3
	c.InterRun = true
	c.CacheBlocks = c.DefaultCache()
	cfgs["inter-unsync"] = c

	c = small()
	c.N = 3
	c.InterRun = true
	c.Placement = layout.Striped
	c.CacheBlocks = c.DefaultCache()
	cfgs["striped"] = c

	c = small()
	c.N = 3
	c.InterRun = true
	c.Placement = layout.Clustered
	c.RunPolicy = core.LeastBufferedRun
	c.CacheBlocks = c.DefaultCache()
	cfgs["clustered-least-buffered"] = c

	c = small()
	c.N = 3
	c.InterRun = true
	c.RunPolicy = core.RoundRobinRun
	c.Disk.Discipline = disk.SSTF
	c.CacheBlocks = c.DefaultCache()
	cfgs["round-robin-sstf"] = c

	c = small()
	c.N = 4
	c.Disk.Discipline = disk.SCAN
	c.Disk.Rotational = disk.RotConstant
	cfgs["scan-rot-constant"] = c

	c = small()
	c.N = 4
	c.Disk.Rotational = disk.RotPositional
	cfgs["rot-positional"] = c

	c = small()
	c.N = 5
	c.InterRun = true
	c.Admission = cache.Greedy
	c.CacheBlocks = c.K*c.N/2 + c.K
	cfgs["greedy-tight-cache"] = c

	c = small()
	c.N = 6
	c.InterRun = true
	c.AdaptiveN = true
	c.CacheBlocks = c.K*c.N/2 + c.K
	cfgs["adaptive-n"] = c

	c = small()
	c.N = 3
	c.MergeTimePerBlock = sim.Ms(0.7)
	cfgs["finite-cpu"] = c

	c = small()
	c.N = 3
	c.Write = core.WriteConfig{Enabled: true, Disks: 2, BatchBlocks: 4, BufferBlocks: 10}
	cfgs["write-separate"] = c

	c = small()
	c.N = 3
	c.MergeTimePerBlock = sim.Ms(0.2)
	c.Write = core.WriteConfig{Enabled: true, Shared: true}
	cfgs["write-shared"] = c

	c = small()
	c.N = 3
	c.Faults = &faults.Spec{Disks: []faults.DiskSpec{
		{Disk: 0, Slowdown: 2.5, SlowdownAtMs: 200},
		{Disk: 2, ReadErrorProb: 0.05, MaxRetries: 50},
		{Disk: 3, Outages: []faults.Window{{StartMs: 100, EndMs: 400}}},
	}}
	cfgs["faulty-disks"] = c

	c = small()
	c.N = 3
	c.InterRun = true
	c.CacheBlocks = c.DefaultCache()
	c.WorkloadFactory = func(trial int) workload.Model {
		return &workload.Skewed{R: rng.New(uint64(trial) + 7), Theta: 0.8}
	}
	cfgs["skewed-workload"] = c

	c = small()
	c.N = 3
	c.InterRun = true
	c.RunPolicy = core.OracleRun
	c.CacheBlocks = c.DefaultCache()
	c.WorkloadFactory = func(trial int) workload.Model {
		seq := make([]int, 2000)
		for i := range seq {
			seq[i] = (i*(trial+3) + i/7) % 8
		}
		return &workload.Sequence{Runs: seq}
	}
	cfgs["oracle-sequence"] = c

	c = small()
	c.N = 4
	c.MaxSimTime = sim.Ms(1500)
	cfgs["timed-out"] = c

	return cfgs
}

// runTraced executes one traced replication and returns the result with
// its recorder.
func runTraced(t *testing.T, cfg core.Config, workers int) (core.Result, *trace.Recorder) {
	t.Helper()
	cfg.Trace = trace.New(0)
	aggs, err := core.RunGrid([]core.Config{cfg}, 1, workers)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	return aggs[0].Results[0], cfg.Trace
}

// TestConservationMatrix replays the full golden config matrix and demands
// the conservation invariant on each point: the report's per-disk and
// CPU decompositions tile the makespan and the attributed stall total
// equals Result.StallTime.
func TestConservationMatrix(t *testing.T) {
	for name, cfg := range abConfigs() {
		t.Run(name, func(t *testing.T) {
			res, rec := runTraced(t, cfg, 1)
			rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
			if err := rep.Check(res.StallTime); err != nil {
				t.Fatal(err)
			}
			if len(rep.Disks) == 0 {
				t.Fatal("report has no disks")
			}
			for _, d := range rep.Disks {
				if d.Utilization <= 0 {
					t.Fatalf("disk %s has zero utilization", d.Name)
				}
			}
		})
	}
}

// TestAttributionCoversStalls requires the blocking-fetch cascade to
// explain every demand stall on the matrix: unattributed time means the
// join logic lost a span, not that the system behaved unusually.
func TestAttributionCoversStalls(t *testing.T) {
	for name, cfg := range abConfigs() {
		t.Run(name, func(t *testing.T) {
			res, rec := runTraced(t, cfg, 1)
			rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
			if rep.Stall.Unattributed != 0 {
				t.Fatalf("unattributed stall %v of total %v", rep.Stall.Unattributed, rep.Stall.Total)
			}
			if rep.Stall.Total > 0 && len(rep.Chains) == 0 {
				t.Fatal("stalls present but no chains extracted")
			}
		})
	}
}

// TestReportByteIdentityAcrossWorkers pins determinism end to end: the
// marshaled report from a workers=1 grid equals the workers=8 one.
func TestReportByteIdentityAcrossWorkers(t *testing.T) {
	cfg := tracedConfig()
	build := func(workers int) []byte {
		res, rec := runTraced(t, cfg, workers)
		rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	b1, b8 := build(1), build(8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("report bytes differ across worker counts:\n1: %s\n8: %s", b1, b8)
	}
}

// tracedConfig exercises every instrumented path: inter-run prefetch, a
// finite CPU, separate write disks, and a degraded disk.
func tracedConfig() core.Config {
	cfg := core.Default()
	cfg.K = 6
	cfg.D = 3
	cfg.BlocksPerRun = 40
	cfg.N = 3
	cfg.InterRun = true
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.MergeTimePerBlock = 0.05
	cfg.Write = core.WriteConfig{Enabled: true, Disks: 1}
	cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{{
		Disk:          1,
		Slowdown:      1.5,
		SlowdownAtMs:  50,
		ReadErrorProb: 0.05,
	}}}
	cfg.Seed = 42
	return cfg
}

// TestDiskSpansTileBusyTime is the invariant explain leans on: per
// track, phase spans never overlap, and the non-outage span lengths sum
// to the disk's accumulated Stats.BusyTime.
func TestDiskSpansTileBusyTime(t *testing.T) {
	for name, cfg := range abConfigs() {
		t.Run(name, func(t *testing.T) {
			res, rec := runTraced(t, cfg, 1)
			byTrack := map[int][]trace.DiskSpan{}
			for _, s := range rec.DiskSpans() {
				byTrack[s.Track] = append(byTrack[s.Track], s)
			}
			busyOf := map[int]sim.Time{}
			for _, track := range sortedKeys(byTrack) {
				spans := byTrack[track]
				sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
				var busy sim.Time
				for i, s := range spans {
					if s.End <= s.Start {
						t.Fatalf("track %d: empty span %+v", track, s)
					}
					// Adjacent requests abut exactly in simulated time, but
					// the next dispatch instant is computed as now+total
					// while the previous span's end accumulated phase by
					// phase — the two differ in the last float bits, so
					// "never overlap" holds up to association jitter.
					if i > 0 {
						jitter := sim.Time(1e-9 * float64(spans[i-1].End))
						if s.Start < spans[i-1].End-jitter {
							t.Fatalf("track %d: span %d overlaps predecessor: %+v after %+v",
								track, i, s, spans[i-1])
						}
					}
					if s.Phase != trace.PhaseOutage {
						busy += s.End - s.Start
					}
				}
				busyOf[track] = busy
			}
			for d, st := range res.PerDisk {
				requireBusyMatch(t, rec.TrackName(trace.CPUTrack+1+d), busyOf[trace.CPUTrack+1+d], st.BusyTime)
			}
			for i, st := range res.PerWriteDisk {
				track := trace.CPUTrack + 1 + len(res.PerDisk) + i
				requireBusyMatch(t, rec.TrackName(track), busyOf[track], st.BusyTime)
			}
		})
	}
}

func requireBusyMatch(t *testing.T, name string, spanBusy, statsBusy sim.Time) {
	t.Helper()
	diff := spanBusy - statsBusy
	if diff < 0 {
		diff = -diff
	}
	tol := explain.Epsilon + sim.Time(1e-9*float64(statsBusy))
	if diff > tol {
		t.Fatalf("%s: span busy %v != stats busy %v (Δ %v)", name, spanBusy, statsBusy, diff)
	}
}

func sortedKeys(m map[int][]trace.DiskSpan) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// TestCSVRoundtripReport pins traceq's file mode: a report built from a
// WriteCSV→ReadCSV roundtrip matches the live-recorder report byte for
// byte.
func TestCSVRoundtripReport(t *testing.T) {
	res, rec := runTraced(t, tracedConfig(), 1)
	opts := explain.Options{Makespan: res.TotalTime}
	live, err := json.Marshal(explain.Build(rec, opts))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := json.Marshal(explain.Build(loaded, opts))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, reloaded) {
		t.Fatalf("report changed across CSV roundtrip:\nlive:     %s\nreloaded: %s", live, reloaded)
	}
}

// TestTruncatedReportFailsCheck: a capped trace must refuse to
// masquerade as a complete attribution.
func TestTruncatedReportFailsCheck(t *testing.T) {
	cfg := tracedConfig()
	cfg.Trace = trace.New(50)
	aggs, err := core.RunGrid([]core.Config{cfg}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Trace.Truncated() {
		t.Fatal("tiny cap did not truncate")
	}
	rep := explain.Build(cfg.Trace, explain.Options{Makespan: aggs[0].Results[0].TotalTime})
	if !rep.Truncated {
		t.Fatal("report did not propagate truncation")
	}
	if err := rep.Check(aggs[0].Results[0].StallTime); err == nil {
		t.Fatal("Check accepted a truncated trace")
	}
}

// TestWriteTextAndSVG smoke-checks the renderers on a real trace.
func TestWriteTextAndSVG(t *testing.T) {
	res, rec := runTraced(t, tracedConfig(), 1)
	rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
	var txt, svg bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(txt.Bytes(), []byte("stall attribution")) {
		t.Fatalf("text report missing sections:\n%s", txt.String())
	}
	if err := explain.WriteTimelineSVG(&svg, rec, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(svg.Bytes(), []byte("<svg ")) || !bytes.Contains(svg.Bytes(), []byte("</svg>")) {
		t.Fatal("timeline is not an SVG document")
	}
}
