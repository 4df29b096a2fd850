#!/usr/bin/env bash
# Drive `fpga-debug sim` on malformed sources and stimulus inputs and
# check that each error class exits with its documented status (see
# `fpga-debug sim --help`), never 125 (uncaught exception), and names
# the offending file on stderr.
# Failures go to stderr and make the script exit 1.
#
#   bash test/cli/sim_errors.sh path/to/main.exe [dir-of-sources]
set -u
exe=$1
dir=${2:-$(dirname "$0")}
fail=0
check() {
  local src=$1 want=$2 pattern=$3 err status
  shift 3
  err=$("$exe" sim "$dir/$src" --cycles 2 "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 125 ] || [ "$status" -ne "$want" ]; then
    echo "FAIL $src: exit $status, want $want: $err" >&2
    fail=1
  elif ! grep -q -- "$pattern" <<<"$err"; then
    echo "FAIL $src: stderr '$err' lacks '$pattern'" >&2
    fail=1
  else
    echo "ok   $src: exit $status: $err"
  fi
}
check missing_semicolon.v 3 "missing_semicolon.v:4: "
check unknown_module.v 4 "unknown_module.v: unknown module fifo_x"
check comb_cycle.v 5 "comb_cycle.v: combinational cycle through a, b"
check unbound_signal.v 6 "unbound_signal.v: unbound signal z"
check counter.v 7 "unknown_signal.stim:2: no signal nosuch" --stim "$dir/unknown_signal.stim"
check counter.v 7 'bad_value.stim:3: bad value "zz"' --stim "$dir/bad_value.stim"
check counter.v 7 "--watch: no signal nosuch" --watch q,nosuch
exit $fail
