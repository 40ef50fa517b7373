package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI goldens under testdata/")

// runMainEnv makes the test binary act as mergesim itself: TestMain
// calls main() with the child's arguments when it is set, so the
// goldens drive the real flag parsing and output code.
const runMainEnv = "MERGESIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMergesim re-executes the test binary as mergesim with args and
// returns its stdout, stderr and exit code.
func runMergesim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("stdout drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// cliGoldens are small flag lines covering every config flag, the
// multi-trial summary, -v, -gantt-ms and a fault run.
var cliGoldens = []struct {
	name string
	args []string
}{
	{"intra-default", []string{"-k", "4", "-d", "2", "-blocks", "40"}},
	{"inter-verbose", []string{"-k", "6", "-d", "3", "-n", "3", "-inter", "-blocks", "50", "-v"}},
	{"inter-sync-unlimited", []string{"-k", "8", "-d", "4", "-n", "2", "-inter", "-sync", "-blocks", "60", "-cache", "-1"}},
	{"greedy-scan-striped", []string{"-k", "5", "-d", "5", "-n", "4", "-blocks", "30", "-cache", "40", "-greedy", "-schedule", "scan", "-placement", "striped"}},
	{"sstf-clustered-single-disk", []string{"-k", "3", "-d", "1", "-n", "4", "-blocks", "20", "-schedule", "sstf", "-placement", "clustered"}},
	{"merge-seed-trials", []string{"-k", "6", "-d", "3", "-blocks", "30", "-merge-ms", "0.2", "-seed", "7", "-trials", "3"}},
	{"sync-cache-gantt", []string{"-k", "8", "-d", "2", "-n", "2", "-blocks", "25", "-sync", "-cache", "30", "-gantt-ms", "40"}},
	{"faulted", []string{"-k", "4", "-d", "2", "-n", "2", "-blocks", "40", "-fault-disk", "1", "-fault-slowdown", "2", "-fault-slowdown-at-ms", "5", "-fault-error-prob", "0.05", "-fault-retries", "4", "-fault-outage", "10:30,60:70"}},
}

// TestCLIGoldens pins mergesim's stdout, text and -json, for each flag
// line in cliGoldens.
func TestCLIGoldens(t *testing.T) {
	for _, gc := range cliGoldens {
		t.Run(gc.name, func(t *testing.T) {
			for _, mode := range []struct {
				ext  string
				args []string
			}{{".txt", gc.args}, {".json", append(append([]string(nil), gc.args...), "-json")}} {
				out, errOut, code := runMergesim(t, mode.args...)
				if code != 0 {
					t.Fatalf("mergesim %v exited %d: %s", mode.args, code, errOut)
				}
				checkGolden(t, gc.name+mode.ext, out)
			}
		})
	}
}

// explainGoldens are the reports that traceq's former run mode pinned
// under ../traceq/testdata; -explain must reproduce them byte for byte.
// traceq's own test reads the same files back from exported traces.
var explainGoldens = []struct {
	name string
	args []string
}{
	{"explain-inter", []string{"-k", "8", "-d", "4", "-n", "3", "-inter", "-blocks", "60", "-merge-ms", "0.1"}},
	{"explain-intra-sync", []string{"-k", "6", "-d", "3", "-n", "2", "-sync", "-blocks", "40", "-merge-ms", "0.2"}},
	{"explain-scan-striped", []string{"-k", "5", "-d", "2", "-blocks", "30", "-cache", "-1", "-greedy", "-schedule", "scan", "-placement", "striped", "-seed", "3", "-merge-ms", "0.05"}},
}

// TestExplainGoldens pins -explain's report, text and -json.
func TestExplainGoldens(t *testing.T) {
	for _, gc := range explainGoldens {
		t.Run(gc.name, func(t *testing.T) {
			for _, ext := range []string{".txt", ".json"} {
				args := append([]string{"-explain"}, gc.args...)
				if ext == ".json" {
					args = append(args, "-json")
				}
				out, errOut, code := runMergesim(t, args...)
				if code != 0 {
					t.Fatalf("mergesim %v exited %d: %s", args, code, errOut)
				}
				checkGolden(t, filepath.Join("..", "..", "traceq", "testdata", gc.name+ext), out)
			}
		})
	}
}

// TestExplainForcesOneTrial: the report is one replication's timeline,
// so -trials > 1 is cut to trial 1 with a note, not averaged.
func TestExplainForcesOneTrial(t *testing.T) {
	gc := explainGoldens[0]
	args := append([]string{"-explain", "-trials", "3"}, gc.args...)
	out, errOut, code := runMergesim(t, args...)
	if code != 0 {
		t.Fatalf("mergesim %v exited %d: %s", args, code, errOut)
	}
	if !strings.Contains(errOut, "force a single trial") {
		t.Errorf("stderr lacks the single-trial note: %q", errOut)
	}
	checkGolden(t, filepath.Join("..", "..", "traceq", "testdata", gc.name+".txt"), out)
}

// TestZeroFlagsTakeRequestDefaults pins the edge cases where the flags
// follow SimulateRequest's zero-value rules: an explicit zero (or empty
// enum name) runs exactly what the default does.
func TestZeroFlagsTakeRequestDefaults(t *testing.T) {
	small := []string{"-k", "6", "-d", "3", "-n", "2", "-blocks", "20"}
	with := func(flag, value string) []string {
		args := append([]string(nil), small...)
		for i := 0; i < len(args); i += 2 {
			if args[i] == flag {
				args[i+1] = value
				return args
			}
		}
		return append(args, flag, value)
	}
	cases := []struct{ flag, zero, def string }{
		{"-seed", "0", "1"},
		{"-k", "0", "25"},
		{"-d", "0", "5"},
		{"-n", "0", "1"},
		{"-blocks", "0", "1000"},
		{"-schedule", "", "fcfs"},
		{"-placement", "", "round-robin"},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			zero, errOut, code := runMergesim(t, with(tc.flag, tc.zero)...)
			if code != 0 {
				t.Fatalf("%s %q exited %d: %s", tc.flag, tc.zero, code, errOut)
			}
			def, _, _ := runMergesim(t, with(tc.flag, tc.def)...)
			if zero != def {
				t.Fatalf("%s %q ran something else than %s %s:\n%s\nvs\n%s", tc.flag, tc.zero, tc.flag, tc.def, zero, def)
			}
		})
	}
}

// TestSingleRunRejected: -k 1 is refused, as it is on the wire.
func TestSingleRunRejected(t *testing.T) {
	_, errOut, code := runMergesim(t, "-k", "1", "-d", "1", "-blocks", "20")
	if code != 1 || !strings.Contains(errOut, "k = 1") {
		t.Fatalf("-k 1: exit %d, stderr %q; want exit 1 naming k = 1", code, errOut)
	}
}

// TestFaultFlagsNeedDisk is the regression test for fault flags that
// were silently dropped when no -fault-disk named a target.
func TestFaultFlagsNeedDisk(t *testing.T) {
	out, errOut, code := runMergesim(t, "-k", "4", "-d", "2", "-blocks", "20", "-fault-retries", "5", "-fault-slowdown-at-ms", "3")
	if code != 1 || !strings.Contains(errOut, "needs -fault-disk") {
		t.Fatalf("orphan fault flags: exit %d, stdout %q, stderr %q; want exit 1", code, out, errOut)
	}
}
