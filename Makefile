# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-json serve figures figures-quick verify examples clean lint fuzz

all: build test

# Pinned static-analysis tool versions (tools.go documents the same
# pins; they are not go.mod requirements so offline builds stay clean).
# CI installs exactly these; locally they are optional.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Static analysis: go vet and the repo-specific detlint analyzers are
# mandatory and hermetic (stdlib only). staticcheck and govulncheck run
# at their pinned versions when installed; install hints otherwise.
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
#   go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
lint:
	go vet ./...
	go run ./cmd/detlint -baseline .detlint-baseline
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Fuzz smoke: the serving boundary must never panic on arbitrary bytes,
# the canonical config encoding must be a decode/encode fixed point, the
# disk-cache entry codec must reject every mutation of its one valid
# serialization per entry, the lint layer's directive parser and
# baseline codec must survive arbitrary comment text and ledger bytes,
# and the trace CSV reader must split records as encoding/csv does and
# read back every export it accepts as a fixed point.
FUZZTIME ?= 10s
fuzz:
	go test -run '^$$' -fuzz '^FuzzDecodeSimulateRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz '^FuzzDecodeOptimizeRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz '^FuzzCanonicalJSONRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/core
	go test -run '^$$' -fuzz '^FuzzDecodeDiskCacheEntry$$' -fuzztime $(FUZZTIME) ./internal/diskcache
	go test -run '^$$' -fuzz '^FuzzParseAllowDirective$$' -fuzztime $(FUZZTIME) ./internal/lint
	go test -run '^$$' -fuzz '^FuzzBaselineRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/lint
	go test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/trace

bench:
	go test -bench=. -benchmem ./...

# Performance ledger: run the figure benches twice each (they
# regenerate whole panels; 2x keeps the run affordable while averaging
# out single-iteration jitter) and the micro-benches at full precision,
# then parse everything into BENCH_4.json. Commit the file so
# optimization PRs carry their numbers; the compare step prints the
# delta against the previous ledger and flags >10% regressions.
bench-json:
	{ go test -run '^$$' -bench '^Benchmark(Fig|All|Ablation|Ext|Anchor|Urn|TRMarkov)' -benchtime=2x . ; \
	  go test -run '^$$' -bench '^Benchmark(Kernel|Disk|Cache|LoserTree|Merge|Service|Optimize|Explain|Trace)' -benchmem . ; } \
	| go run ./cmd/benchjson -out BENCH_4.json
	go run ./cmd/benchjson -compare BENCH_3.json BENCH_4.json

# Run the simulation daemon on :8080 (see cmd/simd -h for flags).
serve:
	go run ./cmd/simd

# Regenerate the paper's evaluation at full fidelity (5 trials) with
# CSV and SVG artifacts under figures-out/.
figures:
	go run ./cmd/figures -csv -svg -chart=false -out figures-out

figures-quick:
	go run ./cmd/figures -quick

# Regression-check figures against the committed reference CSVs, after
# the tree passes static analysis.
verify: lint
	go run ./cmd/figures -verify -out figures-out

examples:
	go run ./examples/quickstart
	go run ./examples/strategycompare
	go run ./examples/capacityplanning
	go run ./examples/externalsort
	go run ./examples/sortpipeline

clean:
	rm -rf figures-out-tmp
