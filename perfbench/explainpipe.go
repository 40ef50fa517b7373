package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/sim"
	"repro/internal/trace"
)

// explainConfig is the reference trace shape: k=50 runs on D=10 disks,
// N=1, a 0.3 ms/block merge CPU and the natural cache.
func explainConfig(seed uint64, blocks int) core.Config {
	cfg := core.Default()
	cfg.K = 50
	cfg.D = 10
	cfg.N = 1
	cfg.BlocksPerRun = blocks
	cfg.MergeTimePerBlock = sim.Ms(0.3)
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.Seed = seed
	return cfg
}

// pipeline is one pass of traced run → export → read back → Build →
// Check, with each call's wall time.
type pipeline struct {
	res      core.Result
	csv      []byte
	rec      *trace.Recorder // read back from csv
	rep      *explain.Report
	checkErr error

	run, write, read, build, check time.Duration
	total                          time.Duration
	callsCPU                       time.Duration // CPU seconds of the five calls
}

// runPipeline is what `mergesim -trace` followed by `traceq -check`
// does, in one process.
func runPipeline(tr *tracer, parent int, cfg core.Config) (*pipeline, error) {
	p := &pipeline{}
	t0 := time.Now()
	live := trace.New(0)
	cfg.Trace = live
	var err error
	if p.run, err = p.call(tr, parent, "core.Run", func() error {
		p.res, err = core.Run(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if p.write, err = p.call(tr, parent, "trace.WriteCSV", func() error { return live.WriteCSV(&buf) }); err != nil {
		return nil, err
	}
	p.csv = buf.Bytes()
	if err := p.explainCSV(tr, parent); err != nil {
		return nil, err
	}
	p.total = time.Since(t0)
	return p, nil
}

// explainCSV reads p.csv back and builds and checks the report on it.
func (p *pipeline) explainCSV(tr *tracer, parent int) error {
	var err error
	if p.read, err = p.call(tr, parent, "trace.ReadCSV", func() error {
		p.rec, err = trace.ReadCSV(bytes.NewReader(p.csv))
		return err
	}); err != nil {
		return err
	}
	p.build, _ = p.call(tr, parent, "explain.Build", func() error {
		p.rep = explain.Build(p.rec, explain.Options{Makespan: p.res.TotalTime})
		return nil
	})
	p.check, _ = p.call(tr, parent, "explain.Check", func() error {
		p.checkErr = p.rep.Check(p.res.StallTime)
		return nil
	})
	return nil
}

// call runs one pipeline call in a span, adds its CPU time to
// p.callsCPU and returns its wall time.
func (p *pipeline) call(tr *tracer, parent int, name string, fn func() error) (time.Duration, error) {
	c0 := cpuTime()
	d, err := tr.do(parent, name, func(int) error { return fn() })
	p.callsCPU += cpuTime() - c0
	return d, err
}

// gate is the trace-explain correctness gate: the report conserves
// (Check passes, no stall left unattributed), the CSV export is a byte
// fixed point of read-back, and tracing did not change the result.
func (p *pipeline) gate(untraced core.Result) error {
	if p.checkErr != nil {
		return fmt.Errorf("explain check: %w", p.checkErr)
	}
	if p.rep.Stall.Unattributed != 0 {
		return fmt.Errorf("explain: %v ms of stall unattributed", float64(p.rep.Stall.Unattributed))
	}
	var again bytes.Buffer
	if err := p.rec.WriteCSV(&again); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), p.csv) {
		return errors.New("trace: WriteCSV(ReadCSV(csv)) differs from csv")
	}
	traced := p.res
	traced.Config.Trace = nil
	if !reflect.DeepEqual(traced, untraced) {
		return errors.New("core: traced Result differs from the untraced one")
	}
	return nil
}

// explainState is one set-up of trace-explain: the untraced reference
// result the traced one must equal.
type explainState struct {
	cfg      core.Config
	untraced core.Result
}

// setupExplain runs the reference config untraced and warms the
// pipeline on a small trace of the same shape.
func setupExplain(c config) (*explainState, error) {
	s := &explainState{cfg: explainConfig(c.seed, c.explainBlocks)}
	var err error
	if s.untraced, err = core.Run(s.cfg); err != nil {
		return nil, err
	}
	small := explainConfig(c.seed, 50)
	p, err := runPipeline(nil, 0, small)
	if err != nil {
		return nil, err
	}
	ref, err := core.Run(small)
	if err != nil {
		return nil, err
	}
	return s, p.gate(ref)
}

// runExplain is the trace-explain workload: one unit is one pass of the
// pipeline on the reference trace.
func runExplain(c config) (result, error) {
	res := result{Correct: true, Metrics: metrics{}}
	setupS, units, err := measureUnits(c, func() (*explainState, error) { return setupExplain(c) }, func(s *explainState) (func(), error) {
		p, err := runPipeline(nil, 0, s.cfg)
		return func() {
			res.Attempted++
			if err := p.gate(s.untraced); err != nil {
				res.Failed++
				res.Correct = false
				fmt.Fprintln(os.Stderr, "trace-explain:", err)
			}
		}, err
	})
	if err != nil {
		return result{}, err
	}
	endToEnd(res.Metrics, setupS, units)
	return res, nil
}
