package lint

import (
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestBaselineRoundTrip(t *testing.T) {
	b := NewBaseline()
	b.Counts[BaselineKey{"internal/core/engine.go", "simunits", `mixing "blocks" and "ms"`}] = 2
	b.Counts[BaselineKey{"internal/service/cache.go", "lockdisc", "send while cache.mu held"}] = 1
	b.Counts[BaselineKey{"a.go", "hotalloc", "message with\ttab and\nnewline"}] = 3

	text := FormatBaseline(b)
	got, err := ParseBaseline(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parsing formatted baseline: %v", err)
	}
	if !reflect.DeepEqual(got.Counts, b.Counts) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got.Counts, b.Counts)
	}
	// Deterministic serialization: format(parse(format(x))) == format(x).
	if again := FormatBaseline(got); again != text {
		t.Fatalf("format not canonical:\n%q\nvs\n%q", again, text)
	}
}

func TestBaselineRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"1\tonly\ttwo",                                   // missing field
		"0\ta.go\tnondet\t\"m\"",                         // zero count
		"-3\ta.go\tnondet\t\"m\"",                        // negative count
		"x\ta.go\tnondet\t\"m\"",                         // non-numeric count
		"1\ta.go\tnondet\tunquoted",                      // message not quoted
		"1\ta.go\tNot-An-Analyzer\t\"m\"",                // bad analyzer name
		"1\t\tnondet\t\"m\"",                             // empty file
		"1\ta\\b.go\tnondet\t\"m\"",                      // backslash path
		"1\ta.go\tnondet\t\"m\"\n1\ta.go\tnondet\t\"m\"", // duplicate key
	} {
		if _, err := ParseBaseline(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseBaseline(%q) succeeded, want error", bad)
		}
	}
}

func TestBaselineFilter(t *testing.T) {
	diag := func(file, analyzer, msg string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "/mod/" + file, Line: 1}, Analyzer: analyzer, Message: msg}
	}
	diags := []Diagnostic{
		diag("a.go", "simunits", "m1"),
		diag("a.go", "simunits", "m1"), // second occurrence of a baselined-once class
		diag("b.go", "ctxflow", "m2"),
	}
	b := NewBaseline()
	b.Counts[BaselineKey{"a.go", "simunits", "m1"}] = 1

	fresh, accepted := FilterBaseline(diags, b, "/mod")
	if len(accepted) != 1 || len(fresh) != 2 {
		t.Fatalf("got %d accepted, %d fresh; want 1, 2", len(accepted), len(fresh))
	}
	if fresh[0].Analyzer != "simunits" || fresh[1].Analyzer != "ctxflow" {
		t.Fatalf("wrong fresh findings: %v", fresh)
	}
}

func TestBaselineFromDiagsRelativizes(t *testing.T) {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "/mod/internal/x.go"}, Analyzer: "nondet", Message: "m"},
		{Pos: token.Position{Filename: "/elsewhere/y.go"}, Analyzer: "nondet", Message: "m"},
	}
	b := BaselineFromDiags(diags, "/mod")
	if b.Counts[BaselineKey{"internal/x.go", "nondet", "m"}] != 1 {
		t.Fatalf("in-module path not relativized: %v", b.Counts)
	}
	if b.Counts[BaselineKey{"/elsewhere/y.go", "nondet", "m"}] != 1 {
		t.Fatalf("out-of-module path mangled: %v", b.Counts)
	}
}
