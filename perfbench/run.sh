#!/bin/sh
# Build the server and the benchmark from source in this checkout, then
# run one workload. Usage (from the checkout root):
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -eu
dune build --root . --display quiet ./bin/vadasa.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe --vadasa ./_build/default/bin/vadasa.exe "$@"
