#!/usr/bin/env bash
# Build the workload benchmark from this checkout and run it; every
# argument goes to perfbench/main.exe (see perfbench/README.md):
#   bash perfbench/run.sh --workload campaign|fuzz|debug --seed N --seconds S --trace 0|1
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
