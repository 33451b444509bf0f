#!/bin/sh
# Build the benchmark program and the server it spawns from this
# checkout's sources, then run the program with the given arguments, e.g.
#
#   sh benchmark/run.sh --workload check-cold --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout; the last line of standard output is
# the result object.  Build output goes to standard error.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark/run.sh: run from the root of a perfcheck checkout" >&2
  exit 2
fi
dune build --root . --cache=disabled ./benchmark/run.exe ./bin/csrl_serve.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
