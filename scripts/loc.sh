#!/usr/bin/env bash
# Non-test lines of Rust, the metric ROADMAP aim 2 tracks: every .rs under
# crates/*/src (bin/ included), each cut at its first column-0 #[cfg(test)].
# Prints per-file counts with -v, the total always.
# What it cannot see: column-0 code that follows a file's first
# #[cfg(test)] is not counted. No file has any today (the four with a
# second #[cfg(test)] hold only test modules after the first); keep a
# file's test modules last and it stays that way.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk -v verbose="${1:-}" '
  FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n[FILENAME]++; total++ }
  END { if (verbose == "-v") for (f in n) print n[f], f | "sort -k2"; close("sort -k2"); print total }'
