#!/usr/bin/env bash
# Build the release serving binaries (gem-served, gem-routed) and the load generator from
# source, then run the load generator with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the repository root);
# the load generator finds the server binaries next to itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p gem-serve -p gem-router --bins >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
