#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it.
# Everything the build and the run write — Go's build cache, temporary
# files, keystore files, span dumps — stays under .bench_build/ in that
# checkout. Arguments are passed through to the benchmark.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

# The commit the environment block prints: this checkout's, when it is a
# git repository of its own (git does not look above it), else unknown.
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
	commit="$commit-dirty"
fi

go build -ldflags "-X main.commit=$commit" -o "$build/thetabench" ./bench
exec "$build/thetabench" "$@"
