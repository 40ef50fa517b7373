// Command perfbench is the repository's benchmark. It drives the
// simulator only through its public calls and prints one JSON result
// line, so two builds of the module can be compared run for run.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 45 --trace 0
//
// Workloads:
//
//	paper-figures  regenerates the paper's ten panels at full fidelity
//	trace-explain  traced run → CSV export → read back → explain.Build → Check
//
// With --trace 0 the result carries the end-to-end metrics of the chosen
// workload, measured with no spans recorded. With --trace 1 the run is
// the layer suite instead: the simulation, introspection and serving
// layer groups are each driven once with a span around every public
// call, the per-layer metrics come from those spans and probes, and the
// spans are written to .bench_build/spans-*.csv. The last stdout line
// is the result; the line before it stamps the machine. METRICS.md says
// what each metric means and which end-to-end number it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last stdout line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config sizes one run. defaultConfig is what the command runs; the
// self-test shrinks it.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root, where figures-out/ is read: the working directory
	work     string // scratch dir under root: temp dirs and span files

	explainBlocks int // blocks per run of the reference trace
	scalingBlocks int // blocks per run of the half-size trace for explain.build_scaling

	suiteFigures  bool // trace mode: run the figure group at full fidelity
	probeEvents   int  // trace mode: kernel events, disk requests and cache cycles per probe
	simd          simdShape
	simdTraceReqs int // trace mode: requests in the traced simd loop
}

func defaultConfig() config {
	return config{
		root:          ".",
		seed:          1,
		seconds:       45,
		explainBlocks: 1000,
		scalingBlocks: 500,
		suiteFigures:  true,
		probeEvents:   2_000_000,
		simd:          defaultSimdShape(),
		simdTraceReqs: 6000,
	}
}

// workloads maps each workload name to its untraced measurement.
var workloads = map[string]func(c config) (result, error){
	"paper-figures": runFigures,
	"trace-explain": runExplain,
}

func run(args []string, stdout, stderr io.Writer) int {
	c := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "paper-figures | trace-explain")
	fs.Uint64Var(&c.seed, "seed", c.seed, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", c.seconds, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced layer suite instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	c.trace = *traceFlag == 1
	res, env, err := execute(c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness gate failed")
		return 1
	}
	return 0
}

// execute runs one configured benchmark and returns its result and the
// machine stamp.
func execute(c config) (result, *envStamp, error) {
	measure, ok := workloads[c.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown --workload %q (have paper-figures, trace-explain)", c.workload)
	}
	if c.seed == 0 {
		return result{}, nil, errors.New("--seed must be positive")
	}
	if c.seconds <= 0 {
		return result{}, nil, errors.New("--seconds must be positive")
	}
	if c.work == "" {
		c.work = filepath.Join(c.root, ".bench_build", "work")
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return result{}, nil, err
	}
	env := stampEnv(c.work)
	if c.trace {
		res, err := runSuite(c)
		return res, env, err
	}
	res, err := measure(c)
	return res, env, err
}

// unitCPU runs fn right after a forced GC and returns the CPU time it
// took.
func unitCPU(fn func() error) (time.Duration, error) {
	runtime.GC()
	c0 := cpuTime()
	err := fn()
	return cpuTime() - c0, err
}

// unit is the cost of one unit of work: one regeneration of the
// figures or one pass of the explain pipeline.
type unit struct {
	cpu      time.Duration
	allocMiB float64
}

// measureUnits repeats a set-up and then a unit of work on what it set
// up, always at least once, while the next pair is predicted (from the
// last one) to end within c.seconds. It returns the median CPU seconds
// of one set-up and what each unit cost. The set-ups are spread over the
// run, one before each unit, because the host's speed moves within
// seconds, and set-ups in a burst would all catch one phase of it. The
// first set-up also carries first-run warm-up, which the median leaves
// out.
//
// op returns the unit's correctness check, which runs after the cost is
// taken. Each set-up and unit starts right after a forced GC, so the
// collections inside it fall at the same points every time; otherwise
// where a cycle lands moves a unit's CPU time by up to 2×.
func measureUnits[T any](c config, setup func() (T, error), op func(T) (check func(), err error)) (float64, []unit, error) {
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	var (
		setups []float64
		units  []unit
		last   time.Duration // wall time of the last set-up and unit
	)
	for len(units) == 0 || time.Now().Add(last).Before(deadline) {
		t0 := time.Now()
		var st T
		d, err := unitCPU(func() error {
			var err error
			st, err = setup()
			return err
		})
		if err != nil {
			return 0, nil, err
		}
		setups = append(setups, d.Seconds())
		runtime.GC()
		a0, c0 := allocMiB(), cpuTime()
		check, err := op(st)
		if err != nil {
			return 0, nil, err
		}
		units = append(units, unit{cpu: cpuTime() - c0, allocMiB: allocMiB() - a0})
		check()
		last = time.Since(t0)
	}
	return median(setups), units, nil
}

// allocMiB is the heap allocated so far, in MiB.
func allocMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// median returns the median of xs, averaging the middle pair when the
// count is even. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// endToEnd fills the end-to-end metrics: the median set-up, and the
// median CPU seconds and allocation of one unit of work.
func endToEnd(m metrics, setupS float64, units []unit) {
	var cpu, alloc []float64
	for _, u := range units {
		cpu = append(cpu, u.cpu.Seconds())
		alloc = append(alloc, u.allocMiB)
	}
	m.set("setup_s", "s", setupS)
	m.set("unit_cpu_s", "s", median(cpu))
	m.set("alloc_mib", "MiB", median(alloc))
}
