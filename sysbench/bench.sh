#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build `sysbench` from source and
# run one workload with the driver's arguments, from the root of a checkout.
#
# The crates it measures name three registry crates (serde, crossbeam,
# parking_lot). Where cargo can resolve them without a network -- they are
# vendored, or the crates no longer need them -- the benchmark measures the
# program exactly as it ships. Where it cannot, as in the sandbox this was
# written in, it builds against the stand-ins under offline/ instead.
set -euo pipefail
here="$(dirname "$0")"
args=(--release --offline --quiet --manifest-path "$here/Cargo.toml")
if ! cargo build "${args[@]}" 2>/dev/null; then
    args+=(--config "$here/offline/config.toml")
fi
exec cargo run "${args[@]}" -- run "$@"
