package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/layout"
	"repro/internal/optimize"
	"repro/internal/service"
)

// The serving group replays the caller cmd/optimize documents: searches
// run against simd so that concurrent searches share evaluations
// through its result cache. Each client first runs the searches in
// cmd/optimize's usage comment in-process, the way `optimize` without
// -addr does, and keeps every visited candidate in visit order. It then
// sends those candidates to the HTTP server as plain /v1/simulate
// requests, which take the path every /v1/optimize evaluation takes
// inside simd (memory tier, disk tier, singleflight, engine) plus one
// HTTP exchange each, so each evaluation has its own X-Cache class and
// latency. The hit, disk-hit, miss and shared shares are what these
// searches produce: anneal revisits its points, clients evaluate the
// same grid points at the same time, and a restart empties the memory
// tier. They are not a measured property of simd's real traffic.

// simdShape sizes the serving replay.
type simdShape struct {
	rounds  int // template seeds each client searches, before and after the restart
	samples int // served keys re-simulated in-process for the cross-check
}

func defaultSimdShape() simdShape { return simdShape{rounds: 16, samples: 24} }

// usageSearches are the searches in cmd/optimize's usage comment, as
// the OptimizeRequest it builds for each, with the template seed that
// `-seed` sets:
//
//	optimize -n 1,5,10,20 -strategies intra-unsync,inter-unsync
//	optimize -d 1:10 -goal min_cost_per_block
//	optimize -addr localhost:8080 -n 1:20:5 -algorithm anneal -opt-seed 7
//
// Each client stands for another user, so its anneal seed is 7 plus
// the client number.
func usageSearches(seed uint64, client int) []service.OptimizeRequest {
	tmpl := &service.SimulateRequest{Seed: seed}
	return []service.OptimizeRequest{
		{Template: tmpl, Space: service.OptimizeSpaceRequest{
			N:          &service.DimensionRequest{Values: []int{1, 5, 10, 20}},
			Strategies: []string{"intra-unsync", "inter-unsync"},
		}},
		{Template: tmpl, Space: service.OptimizeSpaceRequest{
			D: &service.DimensionRequest{Min: 1, Max: 10},
		}, Objective: &service.ObjectiveRequest{Goal: "min_cost_per_block"}},
		{Template: tmpl, Space: service.OptimizeSpaceRequest{
			N: &service.DimensionRequest{Min: 1, Max: 20, Step: 5},
		}, Search: &service.SearchRequest{Algorithm: "anneal", Seed: 7 + uint64(client)}},
	}
}

// evaluation is one candidate a search evaluated, as the /v1/simulate
// request that asks for it and the mean seconds the search got back.
type evaluation struct {
	req     service.SimulateRequest
	seconds float64
}

// candidateRequest is the /v1/simulate request for a visited candidate:
// the template's fields with the candidate's knobs set. CacheBlocks is
// already resolved (a size, or -1 for unlimited), as the wire expects.
func candidateRequest(seed uint64, e optimize.TraceEntry) service.SimulateRequest {
	p := e.Params
	return service.SimulateRequest{
		K: p.K, D: p.D, N: p.N, CacheBlocks: p.CacheBlocks,
		InterRun: p.InterRun, Synchronized: p.Synchronized, Placement: p.Placement,
		Seed: seed, Trials: e.Trials,
	}
}

// buildReplays runs every client's searches for every round on one
// in-process Service and returns each client's evaluations in order.
// Invalid candidates are skipped: a search never evaluates them.
func buildReplays(c config, clients int) ([][]evaluation, error) {
	svc := service.New(service.Options{})
	defer svc.Close()
	replays := make([][]evaluation, clients)
	for r := 0; r < c.simd.rounds; r++ {
		seed := c.seed*1000 + uint64(r)
		for cl := range replays {
			for _, req := range usageSearches(seed, cl) {
				body, _, _, err := svc.Optimize(context.Background(), req)
				if err != nil {
					return nil, err
				}
				var res optimize.Result
				if err := json.Unmarshal(body, &res); err != nil {
					return nil, err
				}
				for _, e := range res.Trace {
					if e.Status != optimize.StatusInvalid {
						replays[cl] = append(replays[cl], evaluation{candidateRequest(seed, e), e.Seconds})
					}
				}
			}
		}
	}
	return replays, nil
}

// engineConfig is the core.Config the service builds for a request
// made by candidateRequest. The miss probe times core.RunTrials on it
// and checks the result against the body the loop was served.
func engineConfig(r service.SimulateRequest) (core.Config, error) {
	cfg := core.Default()
	cfg.K, cfg.D, cfg.N, cfg.Seed = r.K, r.D, r.N, r.Seed
	cfg.InterRun, cfg.Synchronized = r.InterRun, r.Synchronized
	cfg.CacheBlocks = r.CacheBlocks
	if r.CacheBlocks == optimize.UnlimitedCache {
		cfg.CacheBlocks = cache.Unlimited
	}
	var err error
	cfg.Placement, err = layout.ParsePlacement(r.Placement)
	return cfg, err
}

// bodies remembers the first 200 body served for each request; every
// later one must be identical. It is the serving group's correctness
// gate. Keys are the request's JSON.
type bodies struct {
	mu   sync.Mutex
	seen map[string][]byte
}

func newBodies() *bodies { return &bodies{seen: make(map[string][]byte)} }

func (b *bodies) observe(key string, body []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.seen[key]; ok && !bytes.Equal(prev, body) {
		return fmt.Errorf("%s: body differs from the first one served", key)
	}
	b.seen[key] = body
	return nil
}

// sample returns up to n of keys in a seeded order.
func sample(keys []string, seed uint64, n int) []string {
	keys = append([]string(nil), keys...)
	sort.Strings(keys)
	r := rand.New(rand.NewSource(int64(seed)))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys[:min(n, len(keys))]
}

// crossCheck re-simulates a seeded sample of the served keys on a
// fresh memory-only Service and compares the bodies.
func (b *bodies) crossCheck(seed uint64, n int) error {
	b.mu.Lock()
	keys := make([]string, 0, len(b.seen))
	for k := range b.seen {
		keys = append(keys, k)
	}
	b.mu.Unlock()
	svc := service.New(service.Options{})
	defer svc.Close()
	for _, k := range sample(keys, seed, n) {
		var req service.SimulateRequest
		if err := json.Unmarshal([]byte(k), &req); err != nil {
			return err
		}
		body, _, err := svc.Simulate(context.Background(), req)
		if err != nil {
			return err
		}
		b.mu.Lock()
		want := b.seen[k]
		b.mu.Unlock()
		if !bytes.Equal(body, want) {
			return fmt.Errorf("%s: served body differs from an in-process Service.Simulate", k)
		}
	}
	return nil
}

// simdState is one set-up of the serving group: each client's replay
// and a Service with a disk tier, served over loopback HTTP.
type simdState struct {
	replays [][]evaluation
	dir     string
	svc     *service.Service
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
	seen    *bodies
}

// setupSimd builds the replays, one client per CPU, and serves a
// Service with the default memory tier and an empty disk tier in a
// fresh temp dir.
func setupSimd(c config) (_ *simdState, err error) {
	s := &simdState{seen: newBodies()}
	if s.replays, err = buildReplays(c, runtimeProcs()); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if s.dir, err = os.MkdirTemp(c.work, "simd-"); err != nil {
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 64,
		DisableCompression:  true,
	}}
	if err := s.serve(); err != nil {
		_ = os.RemoveAll(s.dir) // the run fails with err either way
		return nil, err
	}
	return s, nil
}

// serve opens the disk tier behind a new Service, whose memory tier
// starts empty, and serves its Handler on a loopback port.
func (s *simdState) serve() error {
	dc, err := diskcache.Open(diskcache.Options{Dir: s.dir})
	if err != nil {
		return err
	}
	s.svc = service.New(service.Options{DiskCache: dc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return err
	}
	s.url = "http://" + ln.Addr().String() + "/v1/simulate"
	s.srv = &http.Server{Handler: s.svc.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return nil
}

// stop shuts the server down, waits for it and closes the Service,
// which flushes the disk tier's index. It does nothing when nothing is
// served, as after a failed restart.
func (s *simdState) stop() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv = nil
	s.client.CloseIdleConnections()
	return errors.Join(err, s.svc.Close())
}

// restart is what a simd restarted with the same -disk-cache-dir does:
// the memory tier is lost and the disk tier is reopened. Every key
// served so far must come back from disk.
func (s *simdState) restart() error {
	if err := s.stop(); err != nil {
		return err
	}
	if err := s.serve(); err != nil {
		return err
	}
	s.seen.mu.Lock()
	keys := len(s.seen.seen)
	s.seen.mu.Unlock()
	if n := s.svc.StatsSnapshot().Disk.Entries; n != keys {
		return fmt.Errorf("disk tier holds %d entries after restart, want the %d keys served", n, keys)
	}
	return nil
}

// close stops the server and removes the temp dir.
func (s *simdState) close() {
	_ = s.stop() // the dir goes next, so a lost index hint does not matter
	_ = os.RemoveAll(s.dir)
}

// outcome is one HTTP request's result.
type outcome struct {
	key     string // the request's JSON
	cache   string // X-Cache: hit, hit-disk, miss or shared
	latency time.Duration
	err     error
}

// do sends one evaluation and checks the reply: it must be a 200, equal
// the first body served for the request, and carry the mean seconds
// the search got for the candidate.
func (s *simdState) do(e evaluation) outcome {
	var o outcome
	req, err := json.Marshal(e.req)
	if err != nil {
		o.err = err
		return o
	}
	o.key = string(req)
	t0 := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(req))
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(t0)
	o.cache = resp.Header.Get("X-Cache")
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		o.err = s.seen.observe(o.key, body)
		var r core.ResultJSON
		if o.err == nil {
			o.err = json.Unmarshal(body, &r)
		}
		if o.err == nil && r.MeanSeconds != e.seconds {
			o.err = fmt.Errorf("%s: served %v s, the search got %v s", o.key, r.MeanSeconds, e.seconds)
		}
	}
	return o
}

// loop runs every client's replay once, concurrently. Each client sends
// its next request only after the reply to its last one.
func (s *simdState) loop(tr *tracer, parent int) []outcome {
	per := make([][]outcome, len(s.replays))
	var wg sync.WaitGroup
	for cl, evals := range s.replays {
		wg.Add(1)
		go func(cl int, evals []evaluation) {
			defer wg.Done()
			for _, e := range evals {
				id := tr.begin(parent, "service.POST /v1/simulate")
				o := s.do(e)
				tr.end(id)
				per[cl] = append(per[cl], o)
			}
		}(cl, evals)
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// tally counts failures and returns the first error.
func tally(outs []outcome) (failed int, first error) {
	for _, o := range outs {
		if o.err != nil {
			failed++
			if first == nil {
				first = o.err
			}
		}
	}
	return failed, first
}

// latencies returns the latencies in seconds of the successful requests
// served with X-Cache: cache.
func latencies(outs []outcome, cache string) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.err == nil && o.cache == cache {
			xs = append(xs, o.latency.Seconds())
		}
	}
	return xs
}
