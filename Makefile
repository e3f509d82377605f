GO ?= go

.PHONY: all build test race verify fmt faults chaos serve-smoke fuzz-smoke bench-smoke cover-gate

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l -w .

# verify is the tier-1 gate every change must pass (see ROADMAP.md):
# it fails on any build/vet error, any unformatted file, or any test
# failure with and without the race detector. staticcheck runs when the
# tool is on PATH and is skipped (with a notice) otherwise, so verify
# works in minimal containers without network access. perfbench is a
# module of its own that `go build ./...` does not reach, so verify vets
# and tests it separately: an API change it depends on fails here, not
# only when the benchmark runs.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) test ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) bench-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) chaos
	$(MAKE) serve-smoke

# fuzz-smoke runs each native fuzz target for a short wall-clock budget
# (coverage-guided mutation on top of the committed seeds). Go allows one
# -fuzz pattern per invocation, hence one line per target. Minimization
# is capped at 10 exec attempts per interesting input: the default 60s
# budget can eat the whole smoke window on a 1-CPU runner while the
# execs counter sits at zero. A crash or a violated round-trip property
# fails the build; real fuzzing sessions can raise -fuzztime arbitrarily.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/liberty/ -run XXX -fuzz 'FuzzLibertyRead$$' \
		-fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./pkg/ageguard/api/ -run XXX -fuzz 'FuzzBatchRequestDecode$$' \
		-fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/netlist/ -run XXX -fuzz 'FuzzNetlistRead$$' \
		-fuzztime $(FUZZTIME) -fuzzminimizetime 10x

# bench-smoke runs every kernel benchmark once: internal/sta's
# (InnerLoop*, Grid*, MCSample at 400 and 3600 gates, TopPaths one-shot
# and on a compiled BatchTimer), internal/char's SPICE kernel
# (ArcTransientINVX1, ArcTransientXOR2X1, CharacterizeINVX1), cache
# load of a daemon-size library (VerifyCacheFile) and a daemon-size
# scenario's sensitivities (SensitivitiesAround), and internal/liberty's
# parser (Read/reference and Read/bytes on a daemon-size library), about
# 4 s on a warm build cache, so a benchmark that stops running fails
# verify instead of the next measurement. One iteration measures
# nothing; time with -benchtime 2s or more.
bench-smoke:
	$(GO) test ./internal/sta/ -run XXX -bench . -benchtime 1x
	$(GO) test ./internal/char/ -run XXX -bench . -benchtime 1x
	$(GO) test ./internal/liberty/ -run XXX -bench . -benchtime 1x

# cover-gate re-runs the full test suite with a coverage profile and
# fails if total statement coverage drops below the committed baseline
# (COVERAGE_BASELINE, a single percentage). The baseline is set ~2 points
# under the measured value so refactors have headroom; raise it when
# coverage climbs. Runs as its own CI step, not inside verify, because
# the profiled run duplicates the whole suite.
cover-gate:
	@profile=$$(mktemp); \
	$(GO) test -coverprofile=$$profile ./... || exit 1; \
	total=$$($(GO) tool cover -func=$$profile | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	rm -f $$profile; \
	baseline=$$(cat $(CURDIR)/COVERAGE_BASELINE); \
	echo "total coverage $$total% (baseline $$baseline%)"; \
	awk -v t="$$total" -v b="$$baseline" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $$baseline% baseline"; exit 1; }

# serve-smoke boots a real ageguardd (quick characterization grid,
# repo disk cache so repeated local runs stay warm), issues one query
# per endpoint over HTTP, and fails unless every query succeeds and the
# drain is clean. Runs as part of verify and in CI.
serve-smoke:
	$(GO) run ./cmd/ageguardd -quick -smoke

# chaos runs the end-to-end fault-injection suite under the race
# detector: a retrying/hedging client driven through a seeded TCP proxy
# and a fault-injecting transport (resets, truncation, corruption,
# latency, forced 5xx) must converge to the bit-identical fault-free
# answers — for single queries and for heterogeneous /v1/batch
# requests, whose per-item answers must match their single-request
# baselines bit for bit — leave no corrupt or partial cache files
# behind, and a warm-restarted daemon must serve repeat queries without
# re-characterizing. Runs as part of verify.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/

# faults runs the fault-injection and recovery suite — solver retry
# ladder, grid-point salvage, checkpoint/resume (flipped checkpoint
# bytes included), cache corruption, exact scenario cache keys and
# partial-sweep paths — under the race detector.
faults:
	$(GO) test -race -run 'Fault|Retry|Salvage|Strict|Resume|Ckpt|Corrupt|Sweep|Truncat|Classify|Escalat|Timeout|ScenarioKey' \
		./internal/spice/ ./internal/char/ ./internal/liberty/ ./internal/obs/
