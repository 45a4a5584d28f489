#!/usr/bin/env bash
# Builds pfibench from source and runs it with the given arguments. Every
# file the build and the run write lands under bench/out, the Go build
# cache included, so a checkout can be measured from a read-only home.
set -eu
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C bench -o "$out/bin/pfibench" ./pfibench
exec "$out/bin/pfibench" "$@"
