// Command mergesim simulates one merge configuration and reports its
// metrics, including the closed-form predictions where they apply.
//
// Example: the paper's headline comparison at k=25, D=5, N=10:
//
//	mergesim -k 25 -d 5 -n 10                 # intra-run, unsynchronized
//	mergesim -k 25 -d 5 -n 10 -inter          # + inter-run prefetching
//	mergesim -k 25 -d 5 -n 10 -inter -sync    # synchronized variant
//	mergesim -k 25 -d 5 -n 10 -inter -cache 500 -trials 5
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/trace"
)

func main() {
	var (
		k         = flag.Int("k", 25, "number of sorted runs")
		d         = flag.Int("d", 5, "number of input disks")
		n         = flag.Int("n", 1, "intra-run prefetch depth N")
		blocks    = flag.Int("blocks", 1000, "blocks per run")
		inter     = flag.Bool("inter", false, "enable inter-run prefetching (all disks one run)")
		sync      = flag.Bool("sync", false, "synchronized prefetching (CPU waits for whole batch)")
		cacheSize = flag.Int("cache", 0, "cache size in blocks (0 = natural size; -1 = unlimited)")
		mergeMs   = flag.Float64("merge-ms", 0, "CPU time to merge one block, in ms (0 = infinitely fast)")
		trials    = flag.Int("trials", 1, "independent trials")
		workers   = flag.Int("workers", 0, "worker goroutines for multi-trial runs (0 = GOMAXPROCS, 1 = serial; results are identical)")
		seed      = flag.Uint64("seed", 1, "random seed")
		greedy    = flag.Bool("greedy", false, "greedy cache admission instead of all-or-demand")
		schedule  = flag.String("schedule", "fcfs", "disk queue discipline: fcfs, sstf, scan")
		placement = flag.String("placement", "round-robin", "run placement: round-robin, clustered, striped")
		verbose   = flag.Bool("v", false, "print per-disk statistics")
		ganttMs   = flag.Float64("gantt-ms", 0, "render a disk-busy Gantt chart for the first N ms of trial 1")
		jsonOut   = flag.Bool("json", false, "emit results as JSON instead of text")
		reqLog    = flag.String("reqlog", "", "write a JSONL log of every disk request (trial 1) to this file")
		traceOut  = flag.String("trace", "", "write an execution trace of trial 1 to this file")
		traceFmt  = flag.String("trace-format", "chrome", "trace format: chrome (Perfetto/chrome://tracing JSON) or csv")
		traceMax  = flag.Int("trace-events", 0, "cap on recorded trace events (0 = default 1M; past it the trace truncates)")

		faultDisk     = flag.Int("fault-disk", -1, "disk index to inject faults into (-1 = none)")
		faultSlowdown = flag.Float64("fault-slowdown", 0, "fail-slow service-time multiplier for the faulted disk (>= 1)")
		faultSlowAt   = flag.Float64("fault-slowdown-at-ms", 0, "simulated instant the slowdown phases in, in ms (0 = from the start)")
		faultErrProb  = flag.Float64("fault-error-prob", 0, "per-request transient read-error probability on the faulted disk")
		faultRetries  = flag.Int("fault-retries", 0, "re-read cap per request (0 = default 3); exhausting it aborts with an unreadable-disk error")
		faultOutage   = flag.String("fault-outage", "", "outage windows for the faulted disk, \"start:end[,start:end]\" in ms")
	)
	flag.Parse()

	cfg := core.Default()
	cfg.K = *k
	cfg.D = *d
	cfg.N = *n
	cfg.BlocksPerRun = *blocks
	cfg.InterRun = *inter
	cfg.Synchronized = *sync
	cfg.MergeTimePerBlock = sim.Ms(*mergeMs)
	cfg.Seed = *seed
	switch *cacheSize {
	case 0:
		cfg.CacheBlocks = cfg.DefaultCache()
	case -1:
		cfg.CacheBlocks = cache.Unlimited
	default:
		cfg.CacheBlocks = *cacheSize
	}
	if *greedy {
		cfg.Admission = cache.Greedy
	}
	switch *schedule {
	case "fcfs":
		cfg.Disk.Discipline = disk.FCFS
	case "sstf":
		cfg.Disk.Discipline = disk.SSTF
	case "scan":
		cfg.Disk.Discipline = disk.SCAN
	default:
		fatal(fmt.Errorf("unknown discipline %q", *schedule))
	}
	switch *placement {
	case "round-robin":
		cfg.Placement = layout.RoundRobin
	case "clustered":
		cfg.Placement = layout.Clustered
	case "striped":
		cfg.Placement = layout.Striped
	default:
		fatal(fmt.Errorf("unknown placement %q", *placement))
	}

	if *faultDisk >= 0 {
		spec := faults.DiskSpec{
			Disk:          *faultDisk,
			Slowdown:      *faultSlowdown,
			SlowdownAtMs:  *faultSlowAt,
			ReadErrorProb: *faultErrProb,
			MaxRetries:    *faultRetries,
		}
		var err error
		if spec.Outages, err = parseOutages(*faultOutage); err != nil {
			fatal(err)
		}
		cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{spec}}
	} else if *faultSlowdown != 0 || *faultErrProb != 0 || *faultOutage != "" {
		fatal(fmt.Errorf("fault flags need -fault-disk to name the target disk"))
	}

	cfg.RecordTimeline = *ganttMs > 0
	var logFile *os.File
	var logBuf *bufio.Writer
	if *reqLog != "" {
		var err error
		logFile, err = os.Create(*reqLog)
		if err != nil {
			fatal(err)
		}
		logBuf = bufio.NewWriter(logFile)
		enc := json.NewEncoder(logBuf)
		cfg.OnRequest = func(tr disk.RequestTrace) {
			if err := enc.Encode(tr); err != nil {
				fatal(err)
			}
		}
		if *trials > 1 {
			fmt.Fprintln(os.Stderr, "mergesim: -reqlog forces a single trial")
			*trials = 1
		}
	}
	if *traceOut != "" {
		if *traceFmt != "chrome" && *traceFmt != "csv" {
			fatal(fmt.Errorf("unknown trace format %q (want chrome or csv)", *traceFmt))
		}
		cfg.Trace = trace.New(*traceMax)
		if *trials > 1 {
			fmt.Fprintln(os.Stderr, "mergesim: -trace forces a single trial")
			*trials = 1
		}
	}
	aggs, err := core.RunGrid([]core.Config{cfg}, *trials, *workers)
	if err != nil {
		fatal(err)
	}
	agg := aggs[0]
	if cfg.Trace != nil {
		if err := writeTrace(*traceOut, *traceFmt, cfg.Trace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events, format %s)\n",
			*traceOut, cfg.Trace.Len(), *traceFmt)
		if cfg.Trace.Truncated() {
			fmt.Fprintln(os.Stderr, "mergesim: trace truncated at the event cap; raise -trace-events for a full timeline")
		}
	}
	if logFile != nil {
		// A truncated request log is worse than no log: surface flush
		// and close errors (ENOSPC, I/O) with a non-zero exit.
		if err := logBuf.Flush(); err != nil {
			fatal(fmt.Errorf("reqlog %s: flush: %w", *reqLog, err))
		}
		if err := logFile.Close(); err != nil {
			fatal(fmt.Errorf("reqlog %s: close: %w", *reqLog, err))
		}
		fmt.Fprintf(os.Stderr, "request log written to %s\n", *reqLog)
	}

	if *jsonOut {
		emitJSON(agg, cfg.Trace != nil && cfg.Trace.Truncated())
		return
	}

	fmt.Printf("strategy       %s\n", cfg.StrategyName())
	fmt.Printf("shape          k=%d runs x %d blocks, D=%d disks, N=%d, cache=%s\n",
		cfg.K, cfg.BlocksPerRun, cfg.D, cfg.N, cacheStr(cfg.CacheBlocks))
	fmt.Printf("total time     %.3f s", agg.TotalTime.Mean())
	if *trials > 1 {
		fmt.Printf("  (±%.3f over %d trials)", agg.TotalTime.CI95(), *trials)
	}
	fmt.Println()
	fmt.Printf("success ratio  %.4f\n", agg.SuccessRatio.Mean())
	fmt.Printf("disk overlap   %.3f busy disks (given any busy)\n", agg.Concurrency.Mean())
	fmt.Printf("cpu stall      %.3f s\n", agg.StallTime.Mean())
	if f := agg.Results[0].Faults; f.Any() {
		fmt.Printf("faults         %d retries (%.3f s), outage wait %.3f s, slowdown %.3f s (trial 1)\n",
			f.Retries, f.RetryTime.Seconds(), f.OutageTime.Seconds(), f.SlowdownTime.Seconds())
	}

	printPredictions(cfg)

	if *verbose {
		res := agg.Results[0]
		fmt.Println("\nper-disk (trial 1):")
		for i, ds := range res.PerDisk {
			fmt.Printf("  disk %d: %d reqs, %d blocks, busy %.2fs, mean seek %.1f cyl, peak queue %d\n",
				i, ds.Requests, ds.Blocks, ds.BusyTime.Seconds(), ds.MeanSeekDistance(), ds.MaxQueueLen)
		}
		fmt.Printf("  cache peak occupancy: %d blocks\n", res.CachePeak)
	}

	if *ganttMs > 0 {
		res := agg.Results[0]
		fmt.Printf("\ndisk busy timeline, first %.0f ms (trial 1):\n", *ganttMs)
		var rows []table.GanttRow
		for i, ivs := range res.Timeline {
			label := fmt.Sprintf("disk %d", i)
			if i >= cfg.D {
				label = fmt.Sprintf("write %d", i-cfg.D)
			}
			row := table.GanttRow{Label: label}
			for _, iv := range ivs {
				row.Intervals = append(row.Intervals,
					[2]float64{iv.Start.Milliseconds(), iv.End.Milliseconds()})
			}
			rows = append(rows, row)
		}
		if err := table.WriteGantt(os.Stdout, rows, 0, *ganttMs, 80); err != nil {
			fatal(err)
		}
	}
}

// emitJSON writes the shared machine-readable result schema
// (core.ResultJSON) — the same document `simd` serves, so scripted
// consumers can switch between the CLI and the daemon freely. A traced
// run that hit its event cap flags trace_truncated, mirroring the
// stderr warning for consumers that only read stdout.
func emitJSON(agg core.Aggregate, traceTruncated bool) {
	doc := core.NewResultJSON(agg)
	doc.TraceTruncated = traceTruncated
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

// printPredictions prints the applicable closed-form expression(s).
func printPredictions(cfg core.Config) {
	m := analysis.FromConfig(cfg.Disk, cfg.K, cfg.D, cfg.N, cfg.BlocksPerRun)
	b := cfg.BlocksPerRun
	switch {
	case !cfg.InterRun && cfg.D == 1 && cfg.N == 1:
		fmt.Printf("analytic       eq(1) predicts %.3f s\n", m.TotalTime(m.Eq1NoPrefetchSingleDisk(), b).Seconds())
	case !cfg.InterRun && cfg.D == 1:
		fmt.Printf("analytic       eq(2) predicts %.3f s\n", m.TotalTime(m.Eq2IntraSingleDisk(), b).Seconds())
	case !cfg.InterRun && cfg.N == 1:
		fmt.Printf("analytic       eq(3) predicts %.3f s\n", m.TotalTime(m.Eq3NoPrefetchMultiDisk(), b).Seconds())
	case !cfg.InterRun && cfg.Synchronized:
		fmt.Printf("analytic       eq(4) predicts %.3f s\n", m.TotalTime(m.Eq4IntraMultiDiskSync(), b).Seconds())
	case !cfg.InterRun:
		fmt.Printf("analytic       eq(4)/urn-game asymptote %.3f s (large N)\n",
			m.IntraUnsyncAsymptotic(b).Seconds())
	case cfg.Synchronized:
		fmt.Printf("analytic       eq(5) predicts %.3f s (ample cache)\n", m.TotalTime(m.Eq5InterMultiDiskSync(), b).Seconds())
	default:
		fmt.Printf("analytic       lower bound kTB/D = %.3f s\n", m.MultiDiskFloor(b).Seconds())
	}
}

// writeTrace exports the recorded trace, surfacing flush and close
// errors with a non-zero exit — a truncated trace file loads as garbage
// in Perfetto.
func writeTrace(path, format string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := bufio.NewWriter(f)
	if format == "csv" {
		err = rec.WriteCSV(buf)
	} else {
		err = rec.WriteChrome(buf)
	}
	if err == nil {
		err = buf.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return nil
}

// parseOutages parses "start:end[,start:end]" (milliseconds) into
// outage windows; validation of ordering happens in cfg.Validate.
func parseOutages(s string) ([]faults.Window, error) {
	if s == "" {
		return nil, nil
	}
	var out []faults.Window
	for _, part := range strings.Split(s, ",") {
		var w faults.Window
		if _, err := fmt.Sscanf(part, "%f:%f", &w.StartMs, &w.EndMs); err != nil {
			return nil, fmt.Errorf("outage %q: want start:end in ms", part)
		}
		out = append(out, w)
	}
	return out, nil
}

func cacheStr(c int) string {
	if c == cache.Unlimited {
		return "unlimited"
	}
	return fmt.Sprintf("%d blocks", c)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mergesim:", err)
	os.Exit(1)
}
