#!/usr/bin/env bash
# Build the cobra CLI and the benchmark from this checkout's sources, then
# run one measurement:
#   bash cobench/run.sh --workload replay|serve --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# the benchmark owns every COBRA_* setting of the processes it starts
for v in $(compgen -e | grep '^COBRA_' || true); do unset "$v"; done
export DUNE_CACHE=disabled
dune build --root . --profile release ./bin/cobra_cli.exe ./cobench/main.exe 1>&2
exec ./_build/default/cobench/main.exe "$@" --cobra ./_build/default/bin/cobra_cli.exe
