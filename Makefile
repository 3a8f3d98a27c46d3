# Convenience targets for the uoivar reproduction.

GO ?= go

.PHONY: build test test-short test-race determinism fmacheck bench-full vet fmt fmtcheck doccheck deadcheck fuzz-short experiments csv examples trace serve-smoke fleet-smoke stream-smoke metrics-smoke graph-smoke grid-smoke clean

# Packages whose exported surface must be fully documented (CI gate).
DOCCHECK_PKGS = ./internal/checkpoint ./internal/envelope ./internal/fleet ./internal/graph ./internal/model ./internal/mpi ./internal/serve ./internal/stream ./internal/telemetry ./internal/uoi .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Formatting gate (CI): fails, listing the files, when gofmt would change any.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Godoc-coverage gate: every exported identifier in DOCCHECK_PKGS must carry
# a doc comment; failures list file:line.
doccheck:
	$(GO) run ./scripts/doccheck $(DOCCHECK_PKGS)

# Dead-surface gate: every exported identifier under internal/ needs a
# non-test caller in this module or the bench module; the few test-only
# oracles and helpers are allow-listed in scripts/deadcheck with reasons.
deadcheck:
	$(GO) run ./scripts/deadcheck

test:
	$(GO) test ./...

# Short fuzz runs of the binary decoders: the shared container codec and the
# .uoim and .uoickpt parsers on top of it, 15 s each. Any panic, untyped
# error, or accepted input that does not re-encode fails the target.
FUZZ_PKGS = ./internal/envelope ./internal/model ./internal/checkpoint
fuzz-short:
	@for pkg in $(FUZZ_PKGS); do \
		$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 15s $$pkg || exit 1; \
	done

test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrent layers (mpi runtime, fault
# injection, bootstrap workers); -short keeps the chaos schedules small.
test-race:
	$(GO) test -race -short ./...

# Determinism gate: a fit's bits may not depend on how many cores the host
# has, so the bit-identity tests of the dense kernels, the solver and the UoI
# engine (kernel budgets, worker counts, placements — DESIGN.md §6, §17) run
# at several GOMAXPROCS, uncached. Two more hosts check their bits against
# the same golden tables: a GOARCH=386 pass (portable kernels, runs natively
# on amd64) and a GOAMD64=v3 pass (where gc may fuse multiply-adds, which the
# pinned float64(a*b) sites forbid; needs a v3-capable CPU).
DETERMINISM_PKGS = ./internal/mat ./internal/admm ./internal/kron ./internal/uoi
DETERMINISM_RUN = 'Identical|MatchesSerial|MatchSerial|VariantsMatch|MatchesLoop|MatchesPerEquation|Deterministic'
determinism:
	@for tags in "" purego; do \
		for procs in 1 2 4 8; do \
			echo "GOMAXPROCS=$$procs tags=$$tags"; \
			GOMAXPROCS=$$procs $(GO) test -count=1 -tags "$$tags" -run $(DETERMINISM_RUN) $(DETERMINISM_PKGS) || exit 1; \
		done; \
	done; \
	for target in "GOARCH=386" "GOAMD64=v3"; do \
		for procs in 1 4; do \
			echo "GOMAXPROCS=$$procs $$target"; \
			env $$target GOMAXPROCS=$$procs $(GO) test -count=1 -run $(DETERMINISM_RUN) $(DETERMINISM_PKGS) || exit 1; \
		done; \
	done

# FMA gate: Go may fuse c + a*b into one fused multiply-add that rounds once
# (it does on arm64, and on amd64 at GOAMD64=v3) where default amd64 rounds
# twice. The kernels and solvers write every such product as float64(a*b) so
# their bits do not depend on the host (DESIGN.md §6); this compiles the
# packages for both targets and fails on any fused instruction in the listing.
# The compiler's listing does not cover hand-written assembly, so the
# packages' *_amd64.s files are searched for the VEX fused mnemonics too.
# The packages are those whose floats reach a fitted model, an artifact or a
# served forecast. telemetry, trace, experiments and perfmodel compute
# reports (metrics, spans, tables, modelled times) that no artifact or
# forecast reads, so a fused rounding there moves no stored bit and they are
# outside the gate.
FMACHECK_PKGS = ./internal/mat ./internal/admm ./internal/kron ./internal/uoi ./internal/varsim ./internal/stream ./internal/preprocess ./internal/resample ./internal/datagen ./internal/model ./internal/serve ./internal/metrics ./internal/fleet
fmacheck:
	@for target in "GOARCH=arm64" "GOARCH=amd64 GOAMD64=v3"; do \
		out="$$(env $$target $(GO) build -gcflags=-S $(FMACHECK_PKGS) 2>&1)" || { echo "$$out"; exit 1; }; \
		[ -n "$$out" ] || { echo "fmacheck: no assembly listing for $$target"; exit 1; }; \
		fused="$$(echo "$$out" | grep -E 'FN?M(ADD|SUB)' || true)"; \
		if [ -n "$$fused" ]; then echo "fused multiply-add ($$target):"; echo "$$fused"; exit 1; fi; \
	done; \
	for pkg in $(FMACHECK_PKGS); do \
		for s in $$pkg/*_amd64.s; do \
			[ -e "$$s" ] || continue; \
			fused="$$(grep -nE 'VFN?M(ADD|SUB)' "$$s" || true)"; \
			if [ -n "$$fused" ]; then echo "fused multiply-add ($$s):"; echo "$$fused"; exit 1; fi; \
		done; \
	done; \
	echo "fmacheck: no fused multiply-add in $(FMACHECK_PKGS) or their amd64 assembly"

# The full go-test benchmark suite (every paper table/figure + ablations).
bench-full:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure to stdout.
experiments:
	$(GO) run ./cmd/experiments -all

# Plot-ready CSV series for the scaling figures.
csv:
	$(GO) run ./cmd/experiments -csv out/csv

# Sample event timeline: generate a small dataset, run a distributed fit
# with recording on, and emit the Chrome trace (open in ui.perfetto.dev)
# plus the printed critical-path summary.
trace:
	mkdir -p out
	$(GO) run ./cmd/uoigen -kind regression -n 2000 -p 64 -o out/trace-sample.hbf
	$(GO) run ./cmd/uoifit -algo lasso -data out/trace-sample.hbf -ranks 4 \
		-trace-out out/sample.trace.json -trace-summary

# End-to-end inference-server smoke test: uoigen → uoifit -model-out →
# uoiserve → curl /healthz and /v1/forecast, then graceful drain.
serve-smoke:
	bash scripts/serve_smoke.sh

# Replicated-fleet smoke test: 3 replicas behind the consistent-hash
# router, deterministic kill of the model's primary mid-traffic, zero
# failed requests, probe-driven rejoin, graceful drain.
fleet-smoke:
	bash scripts/fleet_smoke.sh

# Streaming smoke test: serve with -stream, ingest observations while
# forecasting, assert the model's version bumps across background refits
# and zero forecasts fail during the hot swaps.
stream-smoke:
	bash scripts/stream_smoke.sh

# Telemetry smoke test: fleet with -metrics and -access-log, tagged traffic
# across a chaos kill, /metrics validated by the round-trip exposition
# parser (scripts/promcheck), request IDs traced router → replica in the
# structured access log.
metrics-smoke:
	bash scripts/metrics_smoke.sh

# Whole-network causal-analytics smoke test: sparse-network gen →
# rank-sharded all-pairs fit (1 vs 4 ranks byte-compared) → 3-replica
# fleet → /v1/graph/topk, node, summary queried across a chaos kill of
# the primary with bit-identical answers → drain.
graph-smoke:
	bash scripts/graph_smoke.sh

# 2-D grid smoke test: one dataset fitted at two grid shapes plus the
# flat-collectives baseline, model artifacts byte-compared (bit-identity
# invariant), PerfReports validated through trace.ParsePerfReport with
# per-communicator comm attribution required.
grid-smoke:
	bash scripts/grid_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/elasticnet
	$(GO) run ./examples/finance
	$(GO) run ./examples/neuro
	$(GO) run ./examples/scaling

clean:
	rm -rf out bin
