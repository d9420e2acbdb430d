#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it with the given arguments.
#
#   bash benchmark/run.sh --workload cold_plan --seed 1 --seconds 18 --trace 0
#   bash benchmark/run.sh                      # every workload, one child process each
#   bash benchmark/run.sh --trace 1            # traced run, spans in benchmark/out/
#   bash benchmark/run.sh --scale tiny         # seconds-long miniature
#   bash benchmark/run.sh --quick              # one timed pass (CI smoke)
#   bash benchmark/run.sh --selfcheck --runs 5 # does it repeat within its bounds?
#
# The build goes to $CARGO_TARGET_DIR when set, else to the repository's own
# target/ (so a tree that was already built does not build the crates twice).
# Everything the benchmark writes goes to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/ss-benchmark" "$@"
