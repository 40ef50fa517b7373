package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the engine goldens under testdata/")

// abConfigs is the config matrix the engine's goldens are pinned on:
// every synchronization mode, placement, queue discipline, rotational
// model, run policy, admission policy, writer mode, fault flavour, and
// workload family the engine branches on.
func abConfigs() map[string]Config {
	small := func() Config {
		cfg := Default()
		cfg.K, cfg.D, cfg.BlocksPerRun = 8, 4, 60
		cfg.CacheBlocks = cfg.DefaultCache()
		return cfg
	}
	cfgs := map[string]Config{}

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
	c.RunPolicy = LeastBufferedRun
	c.CacheBlocks = c.DefaultCache()
	cfgs["clustered-least-buffered"] = c

	c = small()
	c.N = 3
	c.InterRun = true
	c.RunPolicy = RoundRobinRun
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
	c.CacheBlocks = c.K*c.N/2 + c.K // tight: trims batches
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
	c.Write = WriteConfig{Enabled: true, Disks: 2, BatchBlocks: 4, BufferBlocks: 10}
	cfgs["write-separate"] = c

	c = small()
	c.N = 3
	c.MergeTimePerBlock = sim.Ms(0.2)
	c.Write = WriteConfig{Enabled: true, Shared: true}
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
	c.RunPolicy = OracleRun
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
	c.MaxSimTime = sim.Ms(1500) // cuts the merge short: partial results
	cfgs["timed-out"] = c

	return cfgs
}

// checkGolden compares got with testdata/<name>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run %s -update to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n%s", path, firstLineDiff(got, want))
	}
}

// firstLineDiff reports the first line where got and want disagree.
func firstLineDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\ngot:  %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestResultGoldens pins the indented ResultJSON of two trials of every
// matrix config, byte for byte. Regenerate with -update only when a
// result change is intended.
func TestResultGoldens(t *testing.T) {
	cfgs := abConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, filepath.Join("results", name+".json"), resultBytes(t, cfgs[name]))
		})
	}
}

func resultBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	agg, err := RunTrials(cfg, 2)
	if err != nil {
		t.Fatalf("RunTrials: %v", err)
	}
	b, err := json.MarshalIndent(NewResultJSON(agg), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}

// traceChromeSHA256 pins the Chrome export of TestTraceGolden's run. The
// export is about twice the size of the CSV, so the test commits its
// digest rather than the file.
const traceChromeSHA256 = "471c6cf13538cf6ab1c98a5fbd237a2d4f04c656e89d288b2fa3e7d5b0f10b96"

// TestTraceGolden pins one traced, fault-injected, writing merge: its
// CSV export byte for byte against testdata/trace.csv and its Chrome
// export by SHA-256. Together they fix every span and lifecycle mark
// and the instant it lands at.
func TestTraceGolden(t *testing.T) {
	cfg := Default()
	cfg.K, cfg.D, cfg.BlocksPerRun = 6, 3, 50
	cfg.N = 3
	cfg.InterRun = true
	cfg.MergeTimePerBlock = sim.Ms(0.3)
	cfg.Write = WriteConfig{Enabled: true, Disks: 1, BatchBlocks: 3, BufferBlocks: 9}
	cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{
		{Disk: 1, Slowdown: 2, SlowdownAtMs: 100, Outages: []faults.Window{{StartMs: 50, EndMs: 250}}},
	}}
	cfg.CacheBlocks = cfg.DefaultCache()

	cfg.Trace = trace.New(0)
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var chrome, csv bytes.Buffer
	if err := cfg.Trace.WriteChrome(&chrome); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := cfg.Trace.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	checkGolden(t, "trace.csv", csv.Bytes())
	sum := sha256.Sum256(chrome.Bytes())
	if got := hex.EncodeToString(sum[:]); got != traceChromeSHA256 {
		t.Fatalf("Chrome export SHA-256 = %s, want %s (update traceChromeSHA256 if the change is intended)",
			got, traceChromeSHA256)
	}
}

// TestRequestLogGolden pins the dispatch-level request observer's
// stream, one %+v record per line, which fixes queue arrival order and
// every request's service decomposition.
func TestRequestLogGolden(t *testing.T) {
	cfg := Default()
	cfg.K, cfg.D, cfg.BlocksPerRun = 6, 3, 40
	cfg.N = 3
	cfg.InterRun = true
	cfg.Write = WriteConfig{Enabled: true, Shared: true}
	cfg.CacheBlocks = cfg.DefaultCache()

	var log bytes.Buffer
	cfg.OnRequest = func(rt disk.RequestTrace) {
		fmt.Fprintf(&log, "%+v\n", rt)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkGolden(t, "requests.txt", log.Bytes())
}
