#!/usr/bin/env bash
# Runs the whole benchmark (every workload, untraced and traced) or, with
# arguments, whatever subcommand they name: `run.sh sim-stats`,
# `run.sh repeat --sets 2`, `run.sh run --workload apps_f1 --trace 1`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then set -- run; fi
exec cargo run --release --offline --locked --manifest-path "$here/Cargo.toml" -- "$@"
