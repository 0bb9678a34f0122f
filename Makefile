# Kimbap build/verify targets. `make ci` is the full tier-1 gate.

GO ?= go

.PHONY: all build test benchmark-test lint race ci bench loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The end-to-end benchmark is its own module (benchmark/go.mod), which
# `go test ./...` at the root does not reach.
benchmark-test:
	cd benchmark && $(GO) test .

# lint runs the standard vet suite plus Kimbap's six analyzers
# (bufownership, cautiousop, conflictfree, deterministic, lockdiscipline,
# phaseorder; DESIGN.md §7 "Checked invariants"). kimbapvet must run from the module
# root: it resolves packages with `go list` and type-checks from source.
# The wall-clock gates sit behind the wallgates build tag, which neither
# `go build`, `go test` nor `go vet ./...` compiles, so they get their own
# vet pass to keep them type-checked against the helpers they call, and
# the nested benchmark module, which `./...` stops short of, gets one too.
# The tree must also be gofmt-clean; the check lists any file that is not.
lint:
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt needed:"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	cd benchmark && $(GO) vet .
	$(GO) vet -tags wallgates ./internal/bench
	$(GO) run ./cmd/kimbapvet ./...

# race covers the concurrency-heavy packages: the property maps, the
# runtime's worker pool and bitsets, the transports, the parallel
# ingestion pipeline (par pool, counting-sort build, partitioner,
# generators), the kvstore application harness, the baselines (Galois's
# MIS and CC run CAS loops under its thread pool), the compiler's
# executor, and the full algorithms package — its host- and thread-count
# equivalence matrices run every parallel pass, the shortcut's Jacobi
# compression included, across host and thread counts, which is exactly
# where a shared-slot write would race.
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

# loc prints the non-test Go lines of every package directory and their
# total, leaving out the nested benchmark module, analyzer testdata and
# hidden directories (build caches). Information only: it never fails.
loc:
	@find . \( -path './.*' -o -path ./benchmark -o -name testdata \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs awk ' \
		{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); n[d == "" ? "." : d]++; t++ } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
