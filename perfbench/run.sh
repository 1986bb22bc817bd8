#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root
# (the directory above this script), passing every argument through:
#   bash perfbench/run.sh --workload batch-direct --seed 1 --seconds 20 --trace 0
# The build cache and every file the run writes stay under .perfbench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .perfbench
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# in the checkout too.
export GOCACHE="$root/.perfbench/gocache" GOMODCACHE="$root/.perfbench/gomodcache" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd perfbench && XDG_CONFIG_HOME="$root/.perfbench/config" go build -o ../.perfbench/perfbench .)
exec .perfbench/perfbench "$@"
