package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.txt")

// quickGolden is the serial render of the full quick experiment set
// (one trial, seed 7): every figure CSV and table of every spec.
var quickGolden = filepath.Join("testdata", "quick.txt")

// checkQuickGolden compares a render of the quick experiment set with
// quickGolden, rewriting the file first under -update.
func checkQuickGolden(t *testing.T, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(quickGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestQuickRenderGolden -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("quick render differs from %s:\n%s", quickGolden, firstDiff(got, string(want)))
	}
}

// render flattens every artifact of a full experiment run — figure CSVs
// and table text, in spec order — into one byte stream for comparison.
func render(t *testing.T, outs []Output) string {
	t.Helper()
	var sb strings.Builder
	for _, out := range outs {
		for _, f := range out.Figures {
			sb.WriteString("figure " + f.ID + "\n")
			if err := f.WriteCSV(&sb); err != nil {
				t.Fatal(err)
			}
		}
		for _, tb := range out.Tables {
			if err := tb.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sb.String()
}

var (
	serialQuickOnce sync.Once
	serialQuickOuts []Output
	serialQuickErr  error
)

// serialQuick runs the full quick experiment set once serially (one
// trial, seed 7) and shares the outputs between the tests that need
// them, so the golden check and the parallel comparison cost one run.
func serialQuick(t *testing.T) []Output {
	t.Helper()
	serialQuickOnce.Do(func() {
		serialQuickOuts, serialQuickErr = RunAll(All(), Options{Trials: 1, Seed: 7, Quick: true, Workers: 1})
	})
	if serialQuickErr != nil {
		t.Fatal(serialQuickErr)
	}
	return serialQuickOuts
}

// TestQuickRenderGolden pins what the figures say: the serial render of
// the full quick experiment set must equal the committed
// testdata/quick.txt. Regenerate the golden with -update only when a
// change to the figures is intended.
func TestQuickRenderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick figure set")
	}
	checkQuickGolden(t, render(t, serialQuick(t)))
}

// TestParallelMatchesSerial is the determinism contract: the full quick
// experiment set, run once serially and once through the parallel
// executor with more workers than cores, must render byte-identical
// figure CSVs and tables. Seeds derive from point and trial indices,
// never from worker identity, and results are collected by index — so
// any divergence means a scheduling-dependent code path leaked into the
// simulation.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick figure set twice")
	}
	par, err := RunAll(All(), Options{Trials: 1, Seed: 7, Quick: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, got := render(t, serialQuick(t)), render(t, par)
	if want != got {
		t.Fatalf("parallel output diverged from serial reference:\nserial:\n%s\nparallel:\n%s",
			firstDiff(want, got), firstDiff(got, want))
	}
}

// TestParallelMatchesSerialMultiTrial covers the trial axis of the grid:
// aggregation must fold per-trial results in trial order regardless of
// completion order, so float sums are bit-identical.
func TestParallelMatchesSerialMultiTrial(t *testing.T) {
	spec, err := Find("3.2a")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunAll([]Spec{spec}, Options{Trials: 3, Seed: 7, Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll([]Spec{spec}, Options{Trials: 3, Seed: 7, Quick: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := render(t, serial), render(t, par); want != got {
		t.Fatalf("multi-trial parallel output diverged:\n%s", firstDiff(want, got))
	}
}

// firstDiff returns the line where a and b first disagree, for readable
// failure output.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			other := "<missing>"
			if i < len(bl) {
				other = bl[i]
			}
			return "line " + strconv.Itoa(i) + ": " + al[i] + " vs " + other
		}
	}
	return "<identical prefix, lengths differ>"
}
