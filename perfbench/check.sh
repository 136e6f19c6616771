#!/bin/sh
# Gate every workload at seed 42 against its committed baseline.  Run from
# the repository root:
#   sh perfbench/check.sh
# For each workload: the untraced rounds (every correctness check enforced)
# are compared with perfbench/baselines/bench_<workload>.json; the traced
# rounds must reproduce the untraced virtual results, and their trace must
# pass the causal check of bench/obs_check.exe.  Finally the gate must catch
# a 10% change of one restart cost constant and name the phase that moved.
set -e
dune build --root . --display=quiet perfbench/main.exe bench/obs_check.exe 1>&2
bench=./_build/default/perfbench/main.exe
for w in paper-fig6 kv-serve fleet-256 delta-mig; do
  $bench --workload $w --seed 42 --seconds 1 --trace 0 | tail -n 1
  $bench compare perfbench/baselines/bench_$w.json BENCH_$w.json
  $bench --workload $w --seed 42 --seconds 1 --trace 1 | tail -n 1 | cut -c 1-120
  ./_build/default/bench/obs_check.exe --causal BENCH_${w}_trace.json
done
$bench sensitivity
