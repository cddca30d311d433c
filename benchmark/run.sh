#!/usr/bin/env bash
# run.sh builds webmm and the benchmark harness from source, then runs the
# harness. Run it from the repository root:
#
#   bash benchmark/run.sh --workload dram-serial --seed 1 --seconds 55 --trace 0
#
# Everything the benchmark writes (binaries, the Go build cache and the go
# command's config, per-run temporary files, the output digests kept between
# runs) lives under .bench_build/ in the checkout. Build output goes to
# stderr so the last line of stdout is the harness's JSON result. Outside a
# full checkout the script exits nonzero without printing a result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/webmm" ]]; then
  echo "run.sh: no webmm sources in $root (run it from the repository root)" >&2
  exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# Telemetry off: in its default mode every go command may fork a detached
# telemetry process that outlives the build.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo "off $(date -u +%F)" >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/webmm" ./cmd/webmm >&2
(cd benchmark && go build -o "$out/webmm-bench" .) >&2
exec "$out/webmm-bench" -root "$root" "$@"
