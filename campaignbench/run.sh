#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it is run in and runs it:
#
#   bash campaignbench/run.sh --workload paper-1page --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced run's spans go to .bench_build/, so nothing is written outside the
# checkout. The binary is built with the same PGO profile as the shipped
# amulet binary (cmd/amulet/default.pgo), or none when that file is absent.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

pgo=off
if [ -f "$root/cmd/amulet/default.pgo" ]; then
	pgo="$root/cmd/amulet/default.pgo"
fi

(
	cd "$root/campaignbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -pgo="$pgo" -o "$out/campaignbench" .
) >&2

exec "$out/campaignbench" "$@"
