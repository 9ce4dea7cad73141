#!/usr/bin/env bash
# One dataflow executor: the sequential and the threaded schedule are one
# stage loop (crates/fpga-sim/src/threaded.rs) over one FIFO transport with
# one `ExternOps` for the `hls` ops. Fails when the sequential engine's own
# FIFO module (crates/fpga-sim/src/stream.rs) is back, when non-test code
# under crates/fpga-sim/src has a second `impl ExternOps for`, when
# non-test code under crates/ir/src spells an `"hls.` op name — the IR
# interpreter runs no hls op, the executor schedules the stages — or when
# a stall is timed again, not detected: `wait_timeout`, `Instant` or
# `Duration` in the executor (threaded.rs), or `watchdog` in non-test
# code under crates/*/src outside runner.rs, whose `run_hls_threaded`
# still takes a duration it ignores. Each file is cut at its first
# column-0 #[cfg(test)], as scripts/loc.sh cuts.
set -euo pipefail
cd "$(dirname "$0")/.."
non_test() {
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 }
    !cut { print FILENAME ":" FNR ": " $0 }'
}
status=0
if [ -e crates/fpga-sim/src/stream.rs ]; then
  echo "crates/fpga-sim/src/stream.rs is back: a second FIFO beside the executor's" >&2
  status=1
fi
impls=$(non_test crates/fpga-sim/src | grep 'impl ExternOps for' || true)
if [ "$(printf '%s' "$impls" | grep -c 'impl' || true)" -gt 1 ]; then
  echo "more than one ExternOps under crates/fpga-sim/src:" >&2
  echo "$impls" >&2
  status=1
fi
names=$(non_test crates/ir/src | grep '"hls\.' || true)
if [ -n "$names" ]; then
  echo "the IR crate spells an hls op (the executor in shmls-fpga-sim runs them):" >&2
  echo "$names" >&2
  status=1
fi
timed=$(non_test crates/fpga-sim/src/threaded.rs | grep -E 'wait_timeout|Instant|Duration' || true)
if [ -n "$timed" ]; then
  echo "the executor times its waits (a stall is detected, not timed):" >&2
  echo "$timed" >&2
  status=1
fi
knobs=$(non_test crates | grep '^crates/[^/]*/src/' | grep -v '^crates/core/src/runner\.rs:' | grep -i 'watchdog' || true)
if [ -n "$knobs" ]; then
  echo "a watchdog outside runner::run_hls_threaded's ignored parameter:" >&2
  echo "$knobs" >&2
  status=1
fi
exit "$status"
