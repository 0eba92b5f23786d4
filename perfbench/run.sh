#!/usr/bin/env bash
# Build the OLFU CLI and the benchmark from source, then run the benchmark.
# From the repository root:
#   bash perfbench/run.sh --workload oneshot-t32 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh smoke
#   bash perfbench/run.sh compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR
# Build output goes to stderr; the last line of stdout is the result.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d bin ] || [ ! -d lib ]; then
  echo "run.sh: not an OLFU source tree (no dune-project, bin/ or lib/)" >&2
  exit 2
fi
# the shared dune cache lives outside the tree; keep every write inside it
DUNE_CACHE=disabled dune build --root . ./bin/olfu_cli.exe ./perfbench/olfu_perf.exe 1>&2 || exit 2
exec ./_build/default/perfbench/olfu_perf.exe "$@"
