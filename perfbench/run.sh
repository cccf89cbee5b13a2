#!/usr/bin/env bash
# Build the benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result JSON.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

# The dune cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
