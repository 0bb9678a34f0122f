#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout. Every file the build or the run writes
# (Go build cache, go-command temp and telemetry files, the binary, the
# generated graphs, traces) lands under .bench_build, never outside the
# checkout; GOPROXY=off and GOTOOLCHAIN=local keep the build offline.
set -euo pipefail
if [[ ! -f benchmark/run.sh ]]; then
	echo "run.sh: run from the checkout root" >&2
	exit 2
fi
out=$PWD/.bench_build
mkdir -p "$out/tmp"
(
	cd benchmark
	GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
		XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -o "$out/kimbap-bench" .
)
exec "$out/kimbap-bench" "$@"
