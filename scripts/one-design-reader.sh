#!/usr/bin/env bash
# One reader of a generated HLS function, run once per compile:
# `DesignDescriptor::from_hls_func` is defined in design.rs, called by the
# transform's `connectivity` phase (hmls.rs) and, on the line that refreshes
# `compiled.design` after a fault has mutated the function, by the
# conformance harness. Everything else under crates/*/src — test modules
# included — reads `HmlsOutput::design` / `CompiledKernel::design`.
set -euo pipefail
cd "$(dirname "$0")/.."
extra=$(grep -rn 'from_hls_func(' crates/*/src |
  grep -v -e '^crates/fpga-sim/src/design\.rs:' -e '^crates/core/src/hmls\.rs:' \
    -e '^crates/conformance/src/harness\.rs:[0-9]*: *compiled\.design = ' || true)
if [ -n "$extra" ]; then
  echo "re-extracts a design the compile already carries (read \`.design\`):" >&2
  echo "$extra" >&2
  exit 1
fi
