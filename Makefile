# Kimbap build/verify targets. `make ci` is the full tier-1 gate.

GO ?= go

.PHONY: all build test benchmark-test lint race ci bench

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The end-to-end benchmark is its own module (benchmark/go.mod), which
# `go test ./...` at the root does not reach.
benchmark-test:
	cd benchmark && $(GO) test .

# lint runs the standard vet suite plus Kimbap's own analyzers
# (DESIGN.md §7 "Checked invariants"). kimbapvet must run from the module
# root: it resolves packages with `go list` and type-checks from source.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/kimbapvet ./...

# race covers the concurrency-heavy packages: the property maps (CAS
# handle included), the runtime's worker pool, bitsets, and async drain
# scheduler, the transports, the parallel ingestion pipeline (par pool,
# Chase-Lev deques, counting-sort build, partitioner, generators), the
# kvstore application harness, the baselines (Galois's MIS and CC run CAS
# loops under its thread pool), the compiler's executor, and the full
# algorithms package — its equivalence matrices hammer the async
# scheduler's stealing/CAS paths and the pull rounds' plain-store master
# scans across host and thread counts, which is exactly where a direction
# bug would race.
race:
	$(GO) test -race ./internal/npm/... ./internal/runtime/... ./internal/comm/... \
		./internal/par/... ./internal/graph/... ./internal/partition/... ./internal/gen/... \
		./internal/kvstore/... ./internal/baselines/... ./internal/compiler/...
	$(GO) test -race ./internal/algorithms

ci: build test benchmark-test lint race

# bench runs the wall-clock gates (internal/bench/perf_wall_test.go, kept
# out of `go test ./...` by the wallgates build tag), then regenerates
# BENCH_kimbap.json, the repo's perf-trajectory record. The previous file's
# wall times are carried into prev_ns_per_op, so the committed file always
# shows before/after for the sync-path suite.
bench:
	$(GO) test -tags wallgates -run 'Gate$$' -v ./internal/bench
	$(GO) run ./cmd/kimbap-bench -exp perf -scale full -reps 3 -json BENCH_kimbap.json
