#!/usr/bin/env bash
# Drive `fpga-debug` on inputs it cannot take and check that each error
# exits with its documented status (see each command's --help), never
# 125 (uncaught exception), and names the offending file or option on
# stderr:
#   - `sim` on malformed sources and stimulus inputs, and the file
#     modes of `lint` and `losscheck`, which load a design the same way;
#   - `sim` applying two stimulus rows for one cycle in file order, and
#     stopping at `$finish` (its VCD timestamps strictly increase);
#   - every command that writes a file (`vcd`, `replay`, `checkpoint`,
#     `instrument -o`, `export -o`, `profile --json`, and the `--json`
#     and `--trace` files of `campaign` and `fuzz`) writing into a
#     missing directory;
#   - count options out of range: `vcd --from` below zero, `campaign
#     --sweep` off a list of positive integers, `instrument --buffer`
#     off the powers of two, negative `--cycles` of `profile` and
#     `deps`, and a non-positive `--every` of `replay` and `checkpoint`
#     or `fuzz --mutants` (usage errors), and `vcd --from` past the end
#     of the run (a header-only waveform and a note, exit 0);
#   - `deps` on a `--target` that is not a signal of the design;
#   - `trace-check` on a trace whose numbers and \u escape are not
#     JSON (`+1`, `01`, `1.`, `\u00_4`), which must exit 1.
# Failures go to stderr and make the script exit 1.
#
#   bash test/cli/cli_errors.sh path/to/main.exe [dir-of-sources]
set -u
exe=$1
dir=${2:-$(dirname "$0")}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0
# expect LABEL STATUS STDERR-PATTERN ARGS...: run the CLI on ARGS
expect() {
  local label=$1 want=$2 pattern=$3 err status
  shift 3
  err=$("$exe" "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 125 ] || [ "$status" -ne "$want" ]; then
    echo "FAIL $label: exit $status, want $want: $err" >&2
    fail=1
  elif ! grep -q -- "$pattern" <<<"$err"; then
    echo "FAIL $label: stderr '$err' lacks '$pattern'" >&2
    fail=1
  else
    echo "ok   $label: exit $status: $err"
  fi
}
check() {
  local src=$1 want=$2 pattern=$3
  shift 3
  expect "$src" "$want" "$pattern" sim "$dir/$src" --cycles 2 "$@"
}
check missing_semicolon.v 3 "missing_semicolon.v:4: "
check unknown_module.v 4 "unknown_module.v: unknown module fifo_x"
check comb_cycle.v 5 "comb_cycle.v: combinational cycle through a, b"
check unbound_signal.v 6 "unbound_signal.v: unbound signal z"
check counter.v 7 "unknown_signal.stim:2: no signal nosuch" --stim "$dir/unknown_signal.stim"
check counter.v 7 'bad_value.stim:3: bad value "zz"' --stim "$dir/bad_value.stim"
check counter.v 7 'not_at.stim:2: expected @CYCLE, got "d=1"' --stim "$dir/not_at.stim"
check counter.v 7 'no_equals.stim:3: bad binding "d"' --stim "$dir/no_equals.stim"
check counter.v 7 'neg_cycle.stim:2: bad cycle "-1"' --stim "$dir/neg_cycle.stim"
check counter.v 7 "--watch: no signal nosuch" --watch q,nosuch
expect "lint syntax" 3 "missing_semicolon.v:4: " lint "$dir/missing_semicolon.v"
losscheck_file() {
  local label=$1 want=$2 pattern=$3 src=$4
  shift 4
  expect "losscheck $label" "$want" "$pattern" \
    losscheck "$dir/$src" --source d --valid d --sink q "$@"
}
losscheck_file syntax 3 "missing_semicolon.v:4: " missing_semicolon.v
losscheck_file "bad value" 7 'bad_value.stim:3: bad value "zz"' counter.v \
  --stim "$dir/bad_value.stim"
losscheck_file "unknown signal" 7 "unknown_signal.stim:2: no signal nosuch" \
  counter.v --stim "$dir/unknown_signal.stim"
losscheck_file "no @" 7 'not_at.stim:2: expected @CYCLE, got "d=1"' counter.v \
  --stim "$dir/not_at.stim"
losscheck_file "no =" 7 'no_equals.stim:3: bad binding "d"' counter.v \
  --stim "$dir/no_equals.stim"
losscheck_file "negative cycle" 7 'neg_cycle.stim:2: bad cycle "-1"' counter.v \
  --stim "$dir/neg_cycle.stim"
losscheck_file "missing stim" 124 "option '--stim'" \
  counter.v --stim "$tmp/none.stim"
losscheck_file "missing top" 4 "counter.v: top module nope not found" counter.v \
  --top nope
expect "losscheck --source" 7 "--source: no signal nosuch" \
  losscheck "$dir/counter.v" --source nosuch --valid d --sink q

# Two rows for one cycle apply in file order: the later d=2 wins.
want=$'cycle   0: q = 1\ncycle   1: q = 2\ncycle   2: q = 4\ncycle   3: q = 6'
got=$("$exe" sim "$dir/counter.v" --cycles 4 --watch q --stim "$dir/repeat.stim")
if [ "$got" != "$want" ]; then
  echo "FAIL sim repeat.stim: got '$got', want '$want'" >&2
  fail=1
fi
# A run stops at $finish: no VCD timestamp repeats after it.
if ! "$exe" sim "$dir/finish.v" --cycles 8 --vcd "$tmp/finish.vcd" >/dev/null \
  || ! grep '^#' "$tmp/finish.vcd" | tr -d '#' | sort -n -c -u; then
  echo "FAIL sim finish.v --vcd: timestamps do not strictly increase" >&2
  fail=1
fi
missing=$tmp/missing
expect "vcd -o" 7 "^$missing/x.vcd: " vcd D2 -o "$missing/x.vcd"
expect "checkpoint -o" 7 "^$missing/ck: " checkpoint D2 --every 50 -o "$missing/ck"
expect "checkpoint -o FILE" 7 "^$dir/counter.v: not a directory" \
  checkpoint D2 --every 50 -o "$dir/counter.v"
if ! "$exe" checkpoint D2 --every 50 -o "$tmp/ck" >/dev/null; then
  echo "FAIL checkpoint D2 into $tmp/ck" >&2
  fail=1
fi
expect "replay -o" 7 "^$missing/r.vcd: " \
  replay D2 --from "$tmp/ck/D2-c50.fdc" -o "$missing/r.vcd"
expect "instrument -o" 7 "^$missing/i.v: " instrument D2 -o "$missing/i.v"
expect "export -o" 7 "^$missing/e: " export -o "$missing/e"
expect "profile --json" 7 "^$missing/p.json: " \
  profile D2 --cycles 20 --json "$missing/p.json"
expect "campaign --json" 7 "^$missing/c.json: " \
  campaign --bugs D2 --jobs 2 --json "$missing/c.json"
expect "campaign --trace" 7 "^$missing/c.trace: " \
  campaign --bugs D2 --jobs 2 --trace "$missing/c.trace"
expect "fuzz --json" 7 "^$missing/f.json: " \
  fuzz --mutants 2 --jobs 1 --json "$missing/f.json"
expect "fuzz --trace" 7 "^$missing/f.trace: " \
  fuzz --mutants 2 --jobs 1 --trace "$missing/f.trace"
expect "vcd --from=-5" 124 "option '--from'" vcd D2 --from=-5 -o "$tmp/neg.vcd"
if [ -e "$tmp/neg.vcd" ]; then
  echo "FAIL vcd --from=-5 wrote a file" >&2
  fail=1
fi
expect "campaign --sweep abc" 124 "option '--sweep'" campaign --sweep abc
expect "instrument --buffer 3" 124 "option '--buffer'" instrument D2 --buffer 3
expect "instrument --buffer 0" 124 "option '--buffer'" instrument D2 --buffer 0
expect "replay --every=-3" 124 "option '--every'" replay D2 --bisect --every=-3
expect "profile --cycles=-5" 124 "option '--cycles'" profile D2 --cycles=-5
expect "deps --cycles=-1" 124 "option '--cycles'" deps D1 --cycles=-1
expect "checkpoint --every 0" 124 "option '--every'" \
  checkpoint D2 --every 0 -o "$tmp/ck0"
expect "fuzz --mutants 0" 124 "option '--mutants'" fuzz --mutants 0
expect "deps --target nosuch" 7 "^D1: Dependency Monitor: unknown target nosuch" \
  deps D1 --target nosuch
expect "vcd --from past the end" 0 "past the last simulated cycle" \
  vcd D2 --from 100000 -o "$tmp/late.vcd"
if [ "$(tail -n 1 "$tmp/late.vcd")" != '$enddefinitions $end' ]; then
  echo "FAIL vcd --from past the end: $tmp/late.vcd is not header-only" >&2
  fail=1
fi
expect "trace-check non-JSON" 1 "not valid JSON" \
  trace-check "$dir/not_json.trace.json"
exit $fail
