#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# arguments given. This is BENCHMARK.json's `command`.
#
# The container has no crate registry, and the workspace still names eight
# registry crates (ROADMAP item 1), so the build points each of them at the
# stand-ins under vendor/. The radix engine, the service and the simulator do
# not run any stand-in code on the paths the benchmark times, except the
# sequential rayon facade behind the two histogram probes.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-.bench_build}
vendor=crates/benchmark/vendor
patches=()
for crate in serde serde_derive serde_json rand rayon proptest criterion crossbeam parking_lot; do
  patches+=(--config "patch.crates-io.$crate.path=\"$vendor/$crate\"")
done
cargo build --release --offline --quiet -p ccsort-benchmark "${patches[@]}" >&2
exec "$CARGO_TARGET_DIR/release/ccsort-benchmark" "$@"
