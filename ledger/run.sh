#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it with the driver's
# arguments. Everything the build writes (Go build cache, module cache, go
# tool config, temp files, the binary) stays under .bench_build/ in the
# checkout; everything a run writes stays under ledger/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build/ledger"
mkdir -p "$build/tmp"
(
	cd "$here"
	env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/ledger" .
) >&2
exec "$build/ledger" --dir "$here" "$@"
