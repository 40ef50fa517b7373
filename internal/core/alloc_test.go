package core

import (
	"testing"

	"repro/internal/sim"
)

// TestEventEngineSteadyStateZeroAlloc pins the event-driven merge engine
// at zero allocations per simulated time slice once warmed: block
// requests, cache waits, wakeups, and prefetch planning must all run on
// the engine's pooled wrappers and reused planning buffers. The runs
// are long enough that the measured slices sit strictly inside the
// steady-state merge (no start-up, no drain).
func TestEventEngineSteadyStateZeroAlloc(t *testing.T) {
	cfg := Default()
	cfg.K, cfg.D, cfg.BlocksPerRun = 8, 4, 50000
	cfg.N = 4
	cfg.InterRun = true
	cfg.CacheBlocks = cfg.DefaultCache()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.m = newMachine(e)
	e.m.start()

	// Warm up: run well past the initial load so wrapper pools, planning
	// buffers, disk queues, and calendar arrays have reached their
	// steady-state sizes.
	horizon := 2 * sim.Second
	if err := e.k.RunUntil(horizon); err != nil {
		t.Fatalf("warm-up RunUntil: %v", err)
	}
	if e.m.state == msDone {
		t.Fatal("merge finished during warm-up; grow BlocksPerRun")
	}

	slice := func() {
		horizon += 20 * sim.Millisecond
		if err := e.k.RunUntil(horizon); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
	}
	before := e.m.merged
	avg := testing.AllocsPerRun(100, slice)
	if e.m.state == msDone {
		t.Fatal("merge finished during measurement; grow BlocksPerRun")
	}
	if e.m.merged == before {
		t.Fatal("no blocks merged during measurement; the slices are too short")
	}
	if avg != 0 {
		t.Errorf("engine steady state allocates %.2f allocs/op, want 0", avg)
	}
}
