#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; run from the
# repository root:
#
#	bash perfbench/run.sh --workload fig12-optt --seed 1 --seconds 30 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, span
# files of traced runs) goes under $CARGO_TARGET_DIR, default
# .bench_build, so the run reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The benchmark is its own module that replaces pepatags with the parent
# directory, so a copy holding only perfbench/ fails to build here.
(
	cd perfbench
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
	# Telemetry would otherwise write counters and may start a helper.
	go telemetry off
	go build -buildvcs=false -o "$out/perfbench" .
)
exec "$out/perfbench" -out "$out" "$@"
