#!/usr/bin/env bash
# Builds the PRIMA benchmark from source and runs it. Run it from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload checkout-hot --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under the build directory,
# $CARGO_TARGET_DIR or .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
# HOME and XDG_CONFIG_HOME keep the go command's own files, such as its
# telemetry counters, inside the build directory too.
(
	cd perfbench
	export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
	export HOME=$build/home XDG_CONFIG_HOME=$build/config
	export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
	go build -buildvcs=false -o "$build/perfbench" .
) >&2
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null \
	git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" --commit "$commit" --spans "$build/spans" "$@"
