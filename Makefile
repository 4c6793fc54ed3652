GO ?= go

.PHONY: check build vet test race lint fmt-check tools bench bench-compare bench-hotpath bench-transport doc-links fuzz-smoke sweep check-mutations

## check: the full gate — formatting, build, vet, static analysis, and
## the test suite under the race detector. This is what CI runs (CI's
## lint job additionally runs govulncheck).
check: fmt-check build vet lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt-check: fail when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint: the documentation link checker plus staticcheck when installed
## (see 'make tools'; staticcheck.conf enables ST1000, so every package
## must keep its doc comment). Without staticcheck a skip notice is
## printed — the container image does not bake analysis tools in, CI
## installs them in the lint job.
lint: doc-links
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (run 'make tools')"; fi

## doc-links: verify every relative link and anchor in the top-level
## markdown set (README/DESIGN/ARCHITECTURE/EXPERIMENTS) resolves.
doc-links:
	$(GO) test -run TestDocLinks .

## tools: one-time install of the analysis tools check/CI use. Requires
## network access; CI's lint job runs the same installs. Versions are
## pinned so a tool release can't break CI out from under a PR (and so
## CI's ~/go/bin cache key is stable); bump them deliberately here.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: one benchmark per paper table/figure plus substrate
## micro-benchmarks (per-message-kind call stats are reported as metrics).
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

## bench-compare: rerun every benchmark lane (experiments.Lanes) and gate
## it against its committed BENCH_<lane>.json. DET_LANES run in virtual
## time, so they are rewritten in place and must stay byte-identical (CI
## fails on any diff). WALL_LANES time real work, which varies between
## machines, so they are compared only; regenerate them deliberately on
## a quiet machine with 'make bench-hotpath' / 'make bench-transport'.
DET_LANES = prefetch managers serving placement failover
WALL_LANES = hotpath transport
bench-compare:
	set -e; for lane in $(DET_LANES); do \
		$(GO) run ./cmd/actbench -only $$lane -json BENCH_$$lane.json -baseline BENCH_$$lane.json; \
	done; \
	for lane in $(WALL_LANES); do \
		$(GO) run ./cmd/actbench -only $$lane -baseline BENCH_$$lane.json; \
	done

## bench-hotpath: regenerate the committed BENCH_hotpath.json (sharded
## vs single-mutex service throughput + encode allocs/op). Run on a
## quiet machine: generation targets >= 1.5x, the CI gate tolerates
## noisy shared runners down to 1.3x.
bench-hotpath:
	$(GO) run ./cmd/actbench -only hotpath -json BENCH_hotpath.json

## bench-transport: regenerate the committed BENCH_transport.json (mux
## vs serialized wire discipline over real TCP + mux round-trip
## allocs/op + the deterministic heterogeneous-topology leg). Run on a
## quiet machine: generation targets >= 1.5x, the CI gate tolerates
## noisy shared runners down to 1.3x.
bench-transport:
	$(GO) run ./cmd/actbench -only transport -json BENCH_transport.json

## fuzz-smoke: run every fuzz target briefly (FUZZTIME each, default
## 10s). Catches codec and diff-application regressions without a long
## fuzzing campaign; CI runs this on every push.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/msg
	$(GO) test -fuzz=FuzzEncodeDecodeRoundTrip -fuzztime=$(FUZZTIME) ./internal/msg
	$(GO) test -fuzz=FuzzApplyDiff -fuzztime=$(FUZZTIME) ./internal/dsm
	$(GO) test -fuzz=FuzzDiffRoundTrip -fuzztime=$(FUZZTIME) ./internal/dsm
	$(GO) test -fuzz=FuzzTraceDecode -fuzztime=$(FUZZTIME) ./internal/trace

## sweep: the coherence model-checker (DESIGN.md §8) — SWEEP_SEEDS seeded
## schedules per scenario under seeded chaos plans with the LRC oracle
## attached. A violation prints a shrunk, ready-to-paste repro and fails.
SWEEP_SEEDS ?= 200
sweep:
	$(GO) run ./cmd/actcheck -seeds $(SWEEP_SEEDS) -q

## check-mutations: checker validation — each deliberately broken
## protocol variant must trip the oracle (the sweep FAILING is the pass).
check-mutations:
	$(GO) run ./cmd/actcheck -seeds 5 -q -expect-failure -mutation no-transitivity
	$(GO) run ./cmd/actcheck -seeds 5 -q -expect-failure -mutation no-notice-dedup
