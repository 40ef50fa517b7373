package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// explainBody is the subset of the explain response the tests assert.
type explainBody struct {
	K              int  `json:"k"`
	TraceTruncated bool `json:"trace_truncated"`
	Explain        *struct {
		MakespanMs float64 `json:"makespan_ms"`
		Truncated  bool    `json:"truncated"`
		CPU        struct {
			StallMs float64 `json:"stall_ms"`
		} `json:"cpu"`
		Disks []struct {
			Name        string  `json:"name"`
			BusyMs      float64 `json:"busy_ms"`
			IdleMs      float64 `json:"idle_ms"`
			Utilization float64 `json:"utilization"`
		} `json:"disks"`
		Stall struct {
			TotalMs        float64 `json:"total_ms"`
			UnattributedMs float64 `json:"unattributed_ms"`
		} `json:"stall"`
	} `json:"explain"`
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	p := fastPoint(11)
	resp, body := postJSON(t, ts.URL+"/v1/explain", p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first explain X-Cache = %q, want miss", got)
	}
	var eb explainBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("bad explain body: %v\n%s", err, body)
	}
	if eb.K != 4 || eb.Explain == nil {
		t.Fatalf("explain body missing fields: %s", body)
	}
	if eb.Explain.MakespanMs <= 0 {
		t.Fatalf("nonpositive makespan: %s", body)
	}
	if len(eb.Explain.Disks) != 2 {
		t.Fatalf("want 2 disks, got %d", len(eb.Explain.Disks))
	}
	for _, d := range eb.Explain.Disks {
		if d.Utilization <= 0 {
			t.Fatalf("disk %s has zero utilization", d.Name)
		}
		if diff := d.BusyMs + d.IdleMs - eb.Explain.MakespanMs; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("disk %s does not tile the makespan: busy %v + idle %v vs %v",
				d.Name, d.BusyMs, d.IdleMs, eb.Explain.MakespanMs)
		}
	}
	if eb.Explain.Truncated || eb.TraceTruncated {
		t.Fatalf("small run flagged truncated: %s", body)
	}

	// Repeat request: served from the report cache byte-identically,
	// with no second engine run.
	resp2, body2 := postJSON(t, ts.URL+"/v1/explain", p)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat explain X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cached explain differs from computed one")
	}

	// The engine run also populated the plain result cache.
	resp3, body3 := postJSON(t, ts.URL+"/v1/simulate", p)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("untraced simulate after explain X-Cache = %q, want hit; %s", got, body3)
	}
	if bytes.Contains(body3, []byte(`"explain"`)) {
		t.Fatalf("plain cached body leaked the report: %s", body3)
	}
}

// TestExplainSingleflight: identical concurrent explains share one
// flight — one traced run and one Build — with the leader answering
// "miss", every joiner "shared", and all bodies byte-equal. The engine
// run is held until every joiner has registered, so the overlap is
// certain rather than timing-dependent.
func TestExplainSingleflight(t *testing.T) {
	const clients = 8
	svc := New(Options{})
	var runs atomic.Int32
	svc.runGrid = func(ctx context.Context, cfgs []core.Config, trials, workers int) ([]core.Aggregate, error) {
		runs.Add(1)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if _, _, shared := svc.met.snapshot(); shared >= clients-1 {
				break
			}
		}
		return core.RunGridContext(ctx, cfgs, trials, workers)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	req, err := json.Marshal(fastPoint(11))
	if err != nil {
		t.Fatal(err)
	}

	bodies := make([][]byte, clients)
	statuses := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(req))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[i])
			}
			statuses[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()

	count := map[string]int{}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		count[statuses[i]]++
	}
	if count["miss"] != 1 || count["shared"] != clients-1 {
		t.Fatalf("X-Cache counts %v, want 1 miss and %d shared", count, clients-1)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d engine runs, want 1", n)
	}
	if _, misses, shared := svc.met.snapshot(); misses != 1 || shared != clients-1 {
		t.Fatalf("metrics: %d misses, %d shared; want 1 and %d", misses, shared, clients-1)
	}
	if err := svc.Drain(testCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestExplainRejectsTraceAndTrials(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	p := fastPoint(11)
	p.Trace = true
	resp, body := postJSON(t, ts.URL+"/v1/explain", p)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace flag: status %d, want 400; %s", resp.StatusCode, body)
	}
	p.Trace = false
	p.Trials = 3
	resp, body = postJSON(t, ts.URL+"/v1/explain", p)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trials 3: status %d, want 400; %s", resp.StatusCode, body)
	}
}

// TestExplainTruncatedNotCachedAndCounted: with a tiny event cap the
// report is flagged truncated, the counter increments, and the body is
// not cached (a bigger cap should be able to answer properly later).
func TestExplainTruncatedNotCachedAndCounted(t *testing.T) {
	svc, ts := newTestServer(t, Options{MaxTraceEvents: 40})
	p := fastPoint(11)
	resp, body := postJSON(t, ts.URL+"/v1/explain", p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var eb explainBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Explain == nil || !eb.Explain.Truncated || !eb.TraceTruncated {
		t.Fatalf("tiny cap not flagged truncated: %s", body)
	}
	if got := svc.met.traceTruncatedSnapshot(); got != 1 {
		t.Fatalf("trace-truncated counter = %d, want 1", got)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/explain", p)
	if got := resp2.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("truncated explain was cached: X-Cache = %q", got)
	}
	if got := svc.met.traceTruncatedSnapshot(); got != 2 {
		t.Fatalf("trace-truncated counter = %d, want 2", got)
	}
}

// TestMetricsGoFamilies: the /metrics scrape carries the runtime
// self-metrics and the truncation counter with HELP/TYPE headers.
func TestMetricsGoFamilies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, family := range []string{
		"simd_go_goroutines",
		"simd_go_heap_objects_bytes",
		"simd_go_gc_pause_seconds",
		"simd_trace_truncated_total",
	} {
		if !strings.Contains(out, "# HELP "+family+" ") {
			t.Fatalf("scrape missing HELP for %s", family)
		}
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Fatalf("scrape missing TYPE for %s", family)
		}
		if !strings.Contains(out, family) {
			t.Fatalf("scrape missing samples for %s", family)
		}
	}
	if !strings.Contains(out, `simd_go_gc_pause_seconds_bucket{le="+Inf"}`) {
		t.Fatalf("gc pause histogram missing +Inf bucket")
	}
}
