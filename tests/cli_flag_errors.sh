#!/bin/sh
# Drives a built pimcomp_cli through its flag-error paths: every bad value
# exits 2 with "<program>: <flag> wants an integer in [min, max], got
# '<token>'", a bare `lower` exits 2, and --list-mappers exits 0. No case
# compiles anything or opens a socket.
#
#   sh tests/cli_flag_errors.sh build/examples/pimcomp_cli
set -u
cli=${1:?usage: cli_flag_errors.sh PATH/TO/pimcomp_cli}
failures=0

# expect CODE STDERR-SUBSTRING ARGS...
expect() {
  want_code=$1
  want_text=$2
  shift 2
  err=$("$cli" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne "$want_code" ]; then
    echo "FAIL: pimcomp_cli $*: exit $code, want $want_code ($err)"
    failures=$((failures + 1))
  elif ! printf '%s\n' "$err" | grep -qF -- "$want_text"; then
    echo "FAIL: pimcomp_cli $*: stderr lacks '$want_text': $err"
    failures=$((failures + 1))
  else
    echo "ok: pimcomp_cli $*"
  fi
}

# No model in the local cases: should a bound regress, the run stops at
# "no model" instead of compiling an enormous graph.
expect 2 "pimcomp: --pop wants an integer in [1, 1000000], got 'abc'" \
  --pop abc
expect 2 "pimcomp: --jobs wants an integer in [1, 1024], got '0'" --jobs 0
expect 2 "pimcomp: --input wants an integer in [1, 65536], got '70000'" \
  --input 70000
expect 2 "pimcomp: --priority wants an integer in [-1000, 1000], got '2000'" \
  submit --priority 2000 --server unix:/nonexistent m
expect 2 "pimcomp serve: --readers wants an integer in [1, 64], got '0'" \
  serve --readers 0
expect 2 "lower needs a model" lower
expect 0 "" --list-mappers

[ "$failures" -eq 0 ] || exit 1
