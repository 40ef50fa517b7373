package service

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/faults"
)

// BindFlags declares the command-line spelling of a SimulateRequest on
// fs, writing parsed values into r: -k -d -n -blocks -inter -sync
// -cache -merge-ms -seed -greedy -schedule -placement, plus one
// faulted disk through the -fault-* flags. Call the returned function
// after fs.Parse: it folds -greedy and the fault flags into r, and
// rejects any -fault-* flag set without -fault-disk. The flags leave
// zero-valued fields to Config's defaults, so an explicit -seed 0 or
// -k 0 means what a zero does on the wire.
func BindFlags(fs *flag.FlagSet, r *SimulateRequest) (finish func() error) {
	fs.IntVar(&r.K, "k", 25, "number of sorted runs")
	fs.IntVar(&r.D, "d", 5, "number of input disks")
	fs.IntVar(&r.N, "n", 1, "intra-run prefetch depth N")
	fs.IntVar(&r.BlocksPerRun, "blocks", 1000, "blocks per run")
	fs.BoolVar(&r.InterRun, "inter", false, "enable inter-run prefetching (all disks one run)")
	fs.BoolVar(&r.Synchronized, "sync", false, "synchronized prefetching (CPU waits for whole batch)")
	fs.IntVar(&r.CacheBlocks, "cache", 0, "cache size in blocks (0 = natural size; -1 = unlimited)")
	fs.Float64Var(&r.MergeMs, "merge-ms", 0, "CPU time to merge one block, in ms (0 = infinitely fast)")
	fs.Uint64Var(&r.Seed, "seed", 1, "random seed (0 = 1)")
	greedy := fs.Bool("greedy", false, "greedy cache admission instead of all-or-demand")
	fs.StringVar(&r.Schedule, "schedule", "fcfs", "disk queue discipline: fcfs, sstf, scan")
	fs.StringVar(&r.Placement, "placement", "round-robin", "run placement: round-robin, clustered, striped")

	var fault FaultRequest
	fs.IntVar(&fault.Disk, "fault-disk", -1, "disk index to inject faults into (-1 = none)")
	fs.Float64Var(&fault.Slowdown, "fault-slowdown", 0, "fail-slow service-time multiplier for the faulted disk (>= 1)")
	fs.Float64Var(&fault.SlowdownAtMs, "fault-slowdown-at-ms", 0, "simulated instant the slowdown phases in, in ms (0 = from the start)")
	fs.Float64Var(&fault.ReadErrorProb, "fault-error-prob", 0, "per-request transient read-error probability on the faulted disk")
	fs.IntVar(&fault.MaxRetries, "fault-retries", 0, "re-read cap per request (0 = default 3); exhausting it aborts with an unreadable-disk error")
	outages := fs.String("fault-outage", "", "outage windows for the faulted disk, \"start:end[,start:end]\" in ms")

	return func() error {
		if *greedy {
			r.Admission = "greedy"
		}
		var orphan string
		fs.Visit(func(f *flag.Flag) {
			if orphan == "" && strings.HasPrefix(f.Name, "fault-") && f.Name != "fault-disk" {
				orphan = f.Name
			}
		})
		if fault.Disk < 0 {
			if orphan != "" {
				return fmt.Errorf("-%s needs -fault-disk to name the target disk", orphan)
			}
			return nil
		}
		var err error
		if fault.Outages, err = parseOutages(*outages); err != nil {
			return err
		}
		r.Faults = []FaultRequest{fault}
		return nil
	}
}

// parseOutages parses "start:end[,start:end]" (milliseconds) into
// outage windows; validation of ordering happens in Config.
func parseOutages(s string) ([]faults.Window, error) {
	if s == "" {
		return nil, nil
	}
	var out []faults.Window
	for _, part := range strings.Split(s, ",") {
		var w faults.Window
		if _, err := fmt.Sscanf(part, "%f:%f", &w.StartMs, &w.EndMs); err != nil {
			return nil, fmt.Errorf("-fault-outage window %q: want start:end in ms", part)
		}
		out = append(out, w)
	}
	return out, nil
}
