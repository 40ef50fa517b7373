package service

import (
	"context"
	"encoding/json"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/trace"
)

// explainKey keys cached explain reports. It shares the config's
// canonical hash with the result cache but lives under its own suffix:
// an explain body embeds the attribution report, so it can never be
// served as a plain result (or vice versa).
func explainKey(cfg core.Config, trials int) (string, error) {
	key, err := resultKey(cfg, trials)
	if err != nil {
		return "", err
	}
	return key + "/explain", nil
}

// explainResponse is the wire form of an explain: the shared result
// schema plus the attribution report. TraceTruncated shadows the
// embedded omitempty field so explain clients always see an explicit
// boolean — an absent key would force them to guess whether the
// attribution covers the whole timeline.
type explainResponse struct {
	core.ResultJSON
	TraceTruncated bool            `json:"trace_truncated"`
	Explain        *explain.Report `json:"explain"`
}

// Explain serves one attributed point: it runs the config traced
// (trials = 1, admitted through the same gate as everything else),
// builds the internal/explain report, verifies the conservation
// invariant against the engine's own stall total, and returns result +
// report. The report is a pure function of the canonical config hash,
// so the whole body is cached under hash/trials/explain and a repeat
// request is a cache hit with no engine run; the plain result body is
// also cached under the normal key for later untraced requests.
// Identical concurrent explains share one flight on that key, run
// detached exactly like /v1/simulate's: joiners are CacheShared.
//
// Requests with the trace flag set are rejected (explain consumes the
// trace internally; ask for one or the other), as are trials > 1 (a
// trace records one replication's timeline).
func (s *Service) Explain(ctx context.Context, req SimulateRequest) ([]byte, CacheStatus, error) {
	if req.Trace {
		return nil, CacheMiss, badRequestf("explain consumes the trace itself; drop the trace flag (use /v1/simulate with trace for raw spans)")
	}
	trials, err := s.trials(req.Trials)
	if err != nil {
		return nil, CacheMiss, err
	}
	if trials != 1 {
		return nil, CacheMiss, badRequestf("explain requires trials = 1 (attribution is one replication's timeline)")
	}
	cfg, err := req.Config()
	if err != nil {
		return nil, CacheMiss, err
	}
	key, err := explainKey(cfg, trials)
	if err != nil {
		return nil, CacheMiss, err
	}
	if b, status, ok := s.cacheGet(key); ok {
		return b, status, nil
	}
	resKey, err := resultKey(cfg, trials)
	if err != nil {
		return nil, CacheMiss, err
	}
	c, leader := s.flights.lead(key)
	status := CacheMiss
	if leader {
		s.met.addCacheMisses(1)
		s.detach([]string{key}, []*call{c}, func(ctx context.Context) error {
			body, err := s.explain(ctx, cfg, key, resKey)
			if err != nil {
				return err
			}
			s.flights.finish(key, c, body, nil)
			return nil
		})
	} else {
		s.met.addDedupShared(1)
		status = CacheShared
	}
	b, err := s.await(ctx, c)
	return b, status, err
}

// explain is one explain flight's work: the traced run, the report and
// its conservation check, and the cache fills. The run honours ctx;
// explain.Build takes none, because on a trace capped at
// MaxTraceEvents it is linear and cheaper than the traced run before
// it.
func (s *Service) explain(ctx context.Context, cfg core.Config, key, resKey string) ([]byte, error) {
	rec := trace.New(s.opts.MaxTraceEvents)
	cfg.Trace = rec
	aggs, err := s.runGrid(ctx, []core.Config{cfg}, 1, 1)
	if err != nil {
		return nil, err
	}
	res := aggs[0].Results[0]
	result := core.NewResultJSON(aggs[0])
	result.TraceTruncated = rec.Truncated()
	if plain, err := json.Marshal(core.NewResultJSON(aggs[0])); err == nil {
		s.cacheAdd(resKey, plain)
	}

	rep, err := Attribute(res, rec)
	if err != nil {
		// A conservation failure is a bug, not a client error; surface
		// it as a 500 rather than serving an attribution that doesn't
		// add up.
		return nil, err
	}
	if rec.Truncated() {
		s.met.addTraceTruncated()
	}
	body, err := json.Marshal(explainResponse{
		ResultJSON:     result,
		TraceTruncated: rec.Truncated(),
		Explain:        rep,
	})
	if err != nil {
		return nil, err
	}
	// A truncated report is incomplete; keep it out of the cache so a
	// redeploy with a larger MaxTraceEvents can answer properly.
	if !rec.Truncated() {
		s.cacheAdd(key, body)
	}
	return body, nil
}

// Attribute builds the explain report of one traced run at its exact
// makespan. An untruncated trace must conserve the engine's own stall
// total; a truncated one cannot, so it is reported without the check.
// POST /v1/explain and mergesim -explain both apply this rule.
func Attribute(res core.Result, rec *trace.Recorder) (*explain.Report, error) {
	rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
	if !rec.Truncated() {
		if err := rep.Check(res.StallTime); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
