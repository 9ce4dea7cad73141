#!/usr/bin/env bash
# One vector executor: the vector tier runs the block executor
# (`Program::run_block` over `bytecode::BLOCK`-lane registers) and nothing
# else. Fails when the 8-lane chunk path's names — `run_lanes` or
# `bytecode::LANES` — appear anywhere under crates/ or tests/, test code
# included, so it cannot come back as a second executor beside the first.
set -euo pipefail
cd "$(dirname "$0")/.."
hits=$(grep -rnE 'run_lanes|bytecode::LANES' crates tests --include='*.rs' || true)
if [ -n "$hits" ]; then
  echo "the 8-lane chunk executor is back beside the block executor:" >&2
  echo "$hits" >&2
  exit 1
fi
