#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (a no-op when
# it is fresh) and hands every argument to it:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#   benchmark/run.sh [--seed N] [--backend B] [--repeat K] [--seconds S]
#       the whole set, every workload in a fresh process
#   benchmark/run.sh compare A.json B.json
#       two sets side by side, judged by the bounds
#
# Run it from the repository root; see benchmark/README.md.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# A relative CARGO_TARGET_DIR is relative to where cargo is run, here.
target="${CARGO_TARGET_DIR:-$here/target}"
# Build messages go to standard error: standard output belongs to results.
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
if [ "${1:-}" = compare ]; then
  exec "$target/release/ivl-benchmark" "$@"
fi
exec "$target/release/ivl-benchmark" --out-dir "$here/out" "$@"
