#!/usr/bin/env bash
# One list of execution tiers: `stencil_hmls::engine` defines them behind
# the `Engine` trait, and a caller picks one by passing a value. Fails on
# an `enum Engine` anywhere under crates/*/src (a second list of tiers
# beside the trait's), and on any `runner::` item but `KernelData` in
# crates/conformance/src (the differential harness sweeps the tiers
# through the trait, not through the one-tier wrappers; a brace group
# counts as an item, so import `runner::KernelData` alone).
set -euo pipefail
cd "$(dirname "$0")/.."
enums=$(grep -rnE '\benum[[:space:]]+Engine\b' crates/*/src || true)
wrappers=$(grep -rnoE 'runner::(\{|[A-Za-z_0-9]+)' crates/conformance/src |
  grep -vE ':runner::KernelData$' || true)
if [ -n "$enums" ] || [ -n "$wrappers" ]; then
  echo "a second list of execution tiers beside stencil_hmls::engine's:" >&2
  [ -z "$enums" ] || echo "$enums" >&2
  [ -z "$wrappers" ] || echo "$wrappers" >&2
  exit 1
fi
