package explain_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// goldenCase is one pinned report: a config, the options Build gets
// (derived from the run's result), and the golden file stem.
type goldenCase struct {
	name string
	cfg  core.Config
	opts func(core.Result) explain.Options
}

// goldenCases is the config matrix at the run's own makespan, plus the
// option shapes the matrix leaves out: a makespan clipped to 60% of
// the run (spans straddling and past the cut), a TopChains bound below
// the default, every chain (pins the full ranking order), and an
// inferred makespan.
func goldenCases() []goldenCase {
	given := func(res core.Result) explain.Options { return explain.Options{Makespan: res.TotalTime} }
	var cases []goldenCase
	matrix := abConfigs()
	names := make([]string, 0, len(matrix))
	for name := range matrix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cases = append(cases, goldenCase{name, matrix[name], given})
	}
	return append(cases,
		goldenCase{"traced-clipped", tracedConfig(), func(res core.Result) explain.Options {
			return explain.Options{Makespan: 0.6 * res.TotalTime}
		}},
		goldenCase{"traced-top3", tracedConfig(), func(res core.Result) explain.Options {
			return explain.Options{Makespan: res.TotalTime, TopChains: 3}
		}},
		goldenCase{"traced-all-chains", tracedConfig(), func(res core.Result) explain.Options {
			return explain.Options{Makespan: res.TotalTime, TopChains: 1 << 20}
		}},
		goldenCase{"traced-inferred", tracedConfig(), func(core.Result) explain.Options {
			return explain.Options{}
		}},
	)
}

// TestReportGoldens pins Build's output byte for byte on every golden
// case, both on the live recorder and on its WriteCSV→ReadCSV
// reconstruction (the traceq file path), which must agree. Regenerate
// with -update only when a report change is intended.
func TestReportGoldens(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			res, rec := runTraced(t, gc.cfg, 1)
			opts := gc.opts(res)
			var csv bytes.Buffer
			if err := rec.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			loaded, err := trace.ReadCSV(&csv)
			if err != nil {
				t.Fatal(err)
			}
			live := reportJSON(t, explain.Build(rec, opts))
			path := filepath.Join("testdata", gc.name+".json")
			if *update {
				if err := os.WriteFile(path, live, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test -run TestReportGoldens -update to create it)", err)
			}
			if !bytes.Equal(live, want) {
				t.Fatalf("live report differs from %s:\ngot:  %s\nwant: %s", path, live, want)
			}
			if reloaded := reportJSON(t, explain.Build(loaded, opts)); !bytes.Equal(reloaded, want) {
				t.Fatalf("CSV read-back report differs from %s:\ngot:  %s\nwant: %s", path, reloaded, want)
			}
		})
	}
}

// reportJSON is the report's wire form plus a trailing newline.
func reportJSON(t *testing.T, rep *explain.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}
