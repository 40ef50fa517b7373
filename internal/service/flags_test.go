package service

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseFlags binds a fresh flag set, parses args and returns the
// request the CLI would run.
func parseFlags(args ...string) (*flag.FlagSet, SimulateRequest, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var req SimulateRequest
	finish := BindFlags(fs, &req)
	if err := fs.Parse(args); err != nil {
		return fs, req, err
	}
	return fs, req, finish()
}

func canonicalOf(t *testing.T, args ...string) string {
	t.Helper()
	_, req, err := parseFlags(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	b, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBindFlagsCoverage is the flag-side twin of the confighash lint:
// every bound flag, set to a non-default value, must change the
// canonical config, so no flag can be parsed and then silently dropped.
// A flag added to BindFlags without a case here fails the test.
func TestBindFlagsCoverage(t *testing.T) {
	faultBase := []string{"-fault-disk", "0"}
	cases := map[string][]string{
		"k":                    {"-k", "7"},
		"d":                    {"-d", "3"},
		"n":                    {"-n", "4"},
		"blocks":               {"-blocks", "50"},
		"inter":                {"-inter"},
		"sync":                 {"-sync"},
		"cache":                {"-cache", "-1"},
		"merge-ms":             {"-merge-ms", "0.5"},
		"seed":                 {"-seed", "9"},
		"greedy":               {"-greedy"},
		"schedule":             {"-schedule", "sstf"},
		"placement":            {"-placement", "clustered"},
		"fault-disk":           {"-fault-disk", "1"},
		"fault-slowdown":       {"-fault-slowdown", "2"},
		"fault-slowdown-at-ms": {"-fault-slowdown-at-ms", "5"},
		"fault-error-prob":     {"-fault-error-prob", "0.1"},
		"fault-retries":        {"-fault-retries", "5"},
		"fault-outage":         {"-fault-outage", "1:2,5:8"},
	}
	fs, _, _ := parseFlags()
	fs.VisitAll(func(f *flag.Flag) {
		if _, ok := cases[f.Name]; !ok {
			t.Errorf("flag -%s has no coverage case", f.Name)
		}
	})
	for name, args := range cases {
		var base []string
		if strings.HasPrefix(name, "fault-") && name != "fault-disk" {
			base = faultBase
		}
		if fs.Lookup(name) == nil {
			t.Errorf("case %s names no bound flag", name)
			continue
		}
		if canonicalOf(t, base...) == canonicalOf(t, append(append([]string(nil), base...), args...)...) {
			t.Errorf("%v leaves the canonical config unchanged", args)
		}
	}
}

// TestBindFlagsRejectsOrphanFaultFlags: a -fault-* flag without a
// target disk is an error, not a silently fault-free run.
func TestBindFlagsRejectsOrphanFaultFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fault-slowdown", "2"},
		{"-fault-slowdown-at-ms", "3"},
		{"-fault-error-prob", "0.1"},
		{"-fault-retries", "5"},
		{"-fault-outage", "1:2"},
		{"-fault-disk", "-1", "-fault-retries", "5"},
	} {
		_, _, err := parseFlags(args...)
		if err == nil || !strings.Contains(err.Error(), "needs -fault-disk") {
			t.Errorf("%v: err = %v, want a -fault-disk error", args, err)
		}
	}
	if _, _, err := parseFlags("-fault-outage", "5"); err == nil {
		t.Error("malformed outage accepted")
	}
}

// TestBindFlagsDefaultsMatchWire: the flag defaults spell the paper's
// baseline, the same config as an empty request body.
func TestBindFlagsDefaultsMatchWire(t *testing.T) {
	cfg, err := SimulateRequest{}.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalOf(t); got != string(want) {
		t.Fatalf("flag defaults:\n got %s\nwant %s", got, want)
	}
}
