package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shrunk is a run small enough for a test: short loops, small traces,
// a quick figure group in the suite.
func shrunk(t *testing.T, workload string, traced bool) config {
	c := defaultConfig()
	c.workload, c.trace = workload, traced
	c.root, c.work = "..", t.TempDir()
	c.seed = 7
	c.seconds = 0.3
	c.explainBlocks, c.scalingBlocks = 100, 50
	c.suiteFigures = false
	c.probeEvents = 10_000
	c.simd = simdShape{rounds: 1, samples: 4}
	return c
}

func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
}

// TestShrunkenWorkloads runs every workload small, untraced, and checks
// it prints every end-to-end metric of BENCHMARK.json with its unit.
// paper-figures still regenerates once at full fidelity, since its gate
// compares against the committed references.
func TestShrunkenWorkloads(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, env, err := execute(shrunk(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if env.Nproc < 1 || env.GoVersion == "" || env.TempFS == "" {
				t.Errorf("incomplete machine stamp %+v", env)
			}
			checkMetrics(t, res, spec.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestShrunkenSuite runs the traced layer suite small and checks it
// prints every per-layer metric with its unit and writes the span file.
func TestShrunkenSuite(t *testing.T) {
	spec := readSpec(t)
	c := shrunk(t, "trace-explain", true)
	res, _, err := execute(c)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, spec.PerLayer)
	shares := []string{"service.mem_hit_ratio", "service.disk_hit_ratio", "service.miss_ratio"}
	if runtimeProcs() > 1 {
		shares = append(shares, "service.shared_ratio")
	}
	for _, name := range shares {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v: the replay never exercised that path", name, res.Metrics[name].Value)
		}
	}
	spans, err := os.ReadFile(filepath.Join(filepath.Dir(c.work), "spans-trace-explain-7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"experiments.RunAll", "trace.WriteCSV", "explain.Build", "service.POST /v1/simulate", "diskcache.Put"} {
		if !bytes.Contains(spans, []byte(","+name+",")) {
			t.Errorf("span file has no %s span", name)
		}
	}
}

// TestFiguresGateFiresOnFlippedCell corrupts one CSV cell of one panel.
func TestFiguresGateFiresOnFlippedCell(t *testing.T) {
	st, err := setupFigures(shrunk(t, "paper-figures", false))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]byte)
	for id, b := range st.golden {
		got[id] = b
	}
	if err := checkFigures(got, st.golden); err != nil {
		t.Fatalf("identical CSVs rejected: %v", err)
	}
	flipped := bytes.Clone(got["3.5b"])
	i := bytes.IndexAny(flipped[bytes.IndexByte(flipped, '\n'):], "123456789") + bytes.IndexByte(flipped, '\n')
	flipped[i] = '0'
	got["3.5b"] = flipped
	err = checkFigures(got, st.golden)
	if err == nil || !strings.Contains(err.Error(), "3.5b") {
		t.Fatalf("flipped cell in 3.5b not caught: %v", err)
	}
}

// TestExplainGateFiresOnDroppedSpan removes one CPU stall span from the
// exported trace before it is read back.
func TestExplainGateFiresOnDroppedSpan(t *testing.T) {
	cfg := explainConfig(3, 60)
	untraced, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPipeline(nil, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.gate(untraced); err != nil {
		t.Fatalf("intact trace rejected: %v", err)
	}
	lines := strings.SplitAfter(string(p.csv), "\n")
	dropped := -1
	for i, l := range lines {
		if f := strings.Split(strings.TrimSpace(l), ","); len(f) == 6 && f[0] == "cpu" && f[2] == "stall" && f[5] != "" {
			dropped = i
			break
		}
	}
	if dropped < 0 {
		t.Fatal("trace has no demand-stall span to drop")
	}
	cut := &pipeline{res: p.res, csv: []byte(strings.Join(append(lines[:dropped:dropped], lines[dropped+1:]...), ""))}
	if err := cut.explainCSV(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := cut.gate(untraced); err == nil {
		t.Fatal("trace with a dropped stall span passed the gate")
	}
}

// TestSimdGateFiresOnAlteredBody feeds the body registry a changed body
// for a key it has seen, and a registry entry no re-simulation matches.
func TestSimdGateFiresOnAlteredBody(t *testing.T) {
	req := service.SimulateRequest{K: 25, D: 5, BlocksPerRun: 200, Seed: 5}
	key, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{})
	defer svc.Close()
	body, _, err := svc.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	seen := newBodies()
	if err := seen.observe(string(key), body); err != nil {
		t.Fatal(err)
	}
	if err := seen.observe(string(key), body); err != nil {
		t.Fatalf("identical body rejected: %v", err)
	}
	if err := seen.crossCheck(1, 4); err != nil {
		t.Fatalf("true body failed the cross-check: %v", err)
	}
	altered := bytes.Replace(body, []byte(`"k":25`), []byte(`"k":26`), 1)
	if bytes.Equal(altered, body) {
		t.Fatal("test body has no k field to alter")
	}
	if err := seen.observe(string(key), altered); err == nil {
		t.Fatal("altered body for a seen key passed the gate")
	}
	wrong := newBodies()
	if err := wrong.observe(string(key), altered); err != nil {
		t.Fatal(err)
	}
	if err := wrong.crossCheck(1, 4); err == nil {
		t.Fatal("altered body passed the in-process cross-check")
	}
}

// TestSelfTimes checks self time subtracts the union of overlapping
// children, not their sum.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{parent: 0, name: "bench.root", start: 0, end: 10 * time.Millisecond},
		{parent: 1, name: "service.a", start: 1 * time.Millisecond, end: 5 * time.Millisecond},
		{parent: 1, name: "service.b", start: 3 * time.Millisecond, end: 7 * time.Millisecond},
		{parent: 2, name: "core.run", start: 2 * time.Millisecond, end: 4 * time.Millisecond},
	}}
	self := tr.selfTimes()
	for layer, want := range map[string]float64{"bench": 0.004, "service": 0.006, "core": 0.002} {
		if d := self[layer] - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], want)
		}
	}
}
