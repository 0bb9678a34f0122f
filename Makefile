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
# The wall-clock gate sits behind the wallgates build tag, which neither
# `go build`, `go test` nor `go vet ./...` compiles, so it gets its own
# vet pass to keep it type-checked against the helpers it calls, and
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
# ingestion pipeline (par pool, the one counting-sort CSR build and the
# generators' duplicate removal, partitioner, generators), the kvstore
# application harness, the baselines (Galois's MIS and CC run CAS loops
# under its thread pool), the compiler's executor, and the full
# algorithms package — its host- and thread-count
# equivalence matrices run every parallel pass, the shortcut's Jacobi
# compression included, across host and thread counts, which is exactly
# where a shared-slot write would race.
race:
	$(GO) test -race ./internal/npm/... ./internal/runtime/... ./internal/comm/... \
		./internal/par/... ./internal/graph/... ./internal/partition/... ./internal/gen/... \
		./internal/kvstore/... ./internal/baselines/... ./internal/compiler/...
	$(GO) test -race ./internal/algorithms

ci: build test benchmark-test lint race

# bench runs the gates of internal/bench with the wall-clock one
# (perf_wall_test.go, kept out of `go test ./...` by the wallgates build
# tag) included. Wall-time claims come from the end-to-end benchmark,
# `bash benchmark/run.sh --compare`, not from this target.
bench:
	$(GO) test -tags wallgates -run 'Gate$$' -v ./internal/bench

# loc prints the non-test Go lines of every package directory and their
# total, leaving out the nested benchmark module, analyzer testdata and
# hidden directories (build caches). Information only: it never fails.
loc:
	@find . \( -path './.*' -o -path ./benchmark -o -name testdata \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs awk ' \
		{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); n[d == "" ? "." : d]++; t++ } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
