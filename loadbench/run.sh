#!/usr/bin/env bash
# Build `odb` and the load benchmark from this checkout's sources, then
# run one benchmark invocation.  Arguments pass through to load.exe:
#
#   bash loadbench/run.sh --workload commit --seed 3 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout ends with the result JSON line.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -f bin/odb.ml ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) holds no odb sources (dune-project, bin/odb.ml, lib/)" >&2
  exit 2
fi

# Keep every build artifact inside the checkout: no shared dune cache,
# no user-level dune configuration.
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$PWD/.loadbench/xdg-cache"
export XDG_CONFIG_HOME="$PWD/.loadbench/xdg-config"

dune build --root . ./bin/odb.exe ./loadbench/load.exe 1>&2
exec ./_build/default/loadbench/load.exe --odb ./_build/default/bin/odb.exe "$@"
