#!/usr/bin/env bash
# Builds the fleet binaries and the benchmark binary from this checkout,
# then runs one benchmark. Run from the repository root:
#   bash perfbench/run.sh --workload warm_resubmit --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/service" || ! -d "$root/crates/router" ]]; then
    echo "perfbench: run from the repository root (no Cargo.toml with crates/ here)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" \
    -p dexlego-service --bin dexlegod \
    -p dexlego-router --bin dexlego-router >&2
cargo build --release --offline --quiet \
    --manifest-path "$root/perfbench/Cargo.toml" >&2

case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$root/$CARGO_TARGET_DIR" ;;
esac
exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
