// Command traceq queries a saved merge execution trace: it builds the
// internal/explain attribution report — where the makespan went per
// disk and phase, which disk each CPU stall was waiting on, queue and
// cache distributions, and the top stall chains — and renders it as
// text, JSON, or an SVG timeline. It only reads traces; to simulate a
// config and explain it in one step, use mergesim -explain.
//
//	mergesim -k 25 -d 5 -n 10 -inter -trace run.csv -trace-format csv
//	traceq -trace run.csv                 # "-" = stdin
//
// Useful flags: -json for the machine-readable report, -svg FILE for
// the timeline, -top N for more chains, -check to exit nonzero when the
// conservation invariant fails (truncated or inconsistent trace).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/explain"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		traceIn  = flag.String("trace", "", "the CSV trace export to read (\"-\" = stdin; required)")
		makespan = flag.Float64("makespan-ms", 0, "the run's makespan in ms (0 = infer from the last span)")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON instead of text")
		svgOut   = flag.String("svg", "", "also write an SVG timeline to this file")
		topN     = flag.Int("top", 5, "number of stall chains to extract")
		check    = flag.Bool("check", false, "verify the conservation invariant; exit 1 on violation")
	)
	flag.Parse()
	if *traceIn == "" {
		fatal(errors.New("-trace is required (to simulate a config and explain it, use mergesim -explain)"))
	}

	rec, err := readTrace(*traceIn)
	if err != nil {
		fatal(err)
	}
	if rec.Truncated() {
		fmt.Fprintln(os.Stderr, "traceq: warning: trace hit its event cap and is truncated; the report is incomplete")
	}

	rep := explain.Build(rec, explain.Options{Makespan: sim.Ms(*makespan), TopChains: *topN})

	if *check {
		if err := rep.Check(rep.Stall.Total); err != nil {
			fmt.Fprintf(os.Stderr, "traceq: conservation violated: %v\n", err)
			os.Exit(1)
		}
	}

	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fatal(err)
		}
		if err := explain.WriteTimelineSVG(f, rec, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

// readTrace loads a CSV export from a file or stdin.
func readTrace(path string) (*trace.Recorder, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadCSV(r)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "traceq: %v\n", err)
	os.Exit(1)
}
