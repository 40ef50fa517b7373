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

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/trace"
)

// runMainEnv makes the test binary act as traceq itself: TestMain
// calls main() with the child's arguments when it is set.
const runMainEnv = "TRACEQ_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTraceq re-executes the test binary as traceq with args and
// returns its stdout, stderr and exit code.
func runTraceq(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// explainGoldens are the configs whose report is pinned under
// testdata/, text and -json. mergesim -explain writes these files
// (its test's -update regenerates them); traceq must reproduce them
// from the same run's exported CSV trace.
var explainGoldens = []struct {
	name string
	args []string
}{
	{"explain-inter", []string{"-k", "8", "-d", "4", "-n", "3", "-inter", "-blocks", "60", "-merge-ms", "0.1"}},
	{"explain-intra-sync", []string{"-k", "6", "-d", "3", "-n", "2", "-sync", "-blocks", "40", "-merge-ms", "0.2"}},
	{"explain-scan-striped", []string{"-k", "5", "-d", "2", "-blocks", "30", "-cache", "-1", "-greedy", "-schedule", "scan", "-placement", "striped", "-seed", "3", "-merge-ms", "0.05"}},
}

// exportTrace simulates the config that mergesim would run for args
// and writes its trace as CSV, as mergesim -trace f -trace-format csv.
func exportTrace(t *testing.T, args []string) string {
	t.Helper()
	fs := flag.NewFlagSet("mergesim", flag.ContinueOnError)
	var req service.SimulateRequest
	finish := service.BindFlags(fs, &req)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = trace.New(0)
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadModeGoldens: the report of an exported trace, with the
// makespan inferred from its last span, matches the report mergesim
// -explain prints at the run's exact makespan.
func TestReadModeGoldens(t *testing.T) {
	for _, gc := range explainGoldens {
		t.Run(gc.name, func(t *testing.T) {
			csv := exportTrace(t, gc.args)
			for _, ext := range []string{".txt", ".json"} {
				args := []string{"-check", "-trace", csv}
				if ext == ".json" {
					args = append(args, "-json")
				}
				out, errOut, code := runTraceq(t, args...)
				if code != 0 {
					t.Fatalf("traceq %v exited %d: %s", args, code, errOut)
				}
				path := filepath.Join("testdata", gc.name+ext)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if out != string(want) {
					t.Fatalf("stdout drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out, want)
				}
			}
		})
	}
}

// TestTraceRequired: traceq only reads traces, so it refuses to run
// without one and points at mergesim -explain.
func TestTraceRequired(t *testing.T) {
	_, errOut, code := runTraceq(t, "-json")
	if code != 1 || !strings.Contains(errOut, "mergesim -explain") {
		t.Fatalf("no -trace: exit %d, stderr %q; want exit 1 pointing at mergesim -explain", code, errOut)
	}
}
