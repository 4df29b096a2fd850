#!/usr/bin/env bash
# Print the stdout of the `fsm`, `stats`, `deps` and `losscheck` commands
# for every testbed bug (`fpga-debug list`), each under a `== CMD BUG ==`
# header, with a `[exit N]` line after a command that exits non-zero
# (stderr is dropped). `dune runtest` diffs the result against
# tools.expected.
#
#   bash test/golden/tools.sh path/to/main.exe
set -u
exe=$1
for bug in $("$exe" list | cut -d' ' -f1); do
  for cmd in fsm stats deps losscheck; do
    echo "== $cmd $bug =="
    "$exe" "$cmd" "$bug" 2>/dev/null
    status=$?
    [ "$status" -eq 0 ] || echo "[exit $status]"
  done
done
