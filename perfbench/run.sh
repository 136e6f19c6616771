#!/bin/sh
# Build the benchmark from source and run it.  Run from the repository root:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The build stays inside the checkout (_build, no shared dune cache); its
# messages go to stderr so the last line of stdout is the result.
set -e
dune build --root . --cache=disabled --display=quiet perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
