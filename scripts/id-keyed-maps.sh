#!/usr/bin/env bash
# One hasher for arena ids: a map or set keyed by an IR id (`OpId`,
# `ValueId`, `BlockId`, `RegionId`) is an `IdMap` / `IdSet`
# (`shmls_ir::ir`), never a SipHash `HashMap` / `HashSet` — the ids are
# indices the program makes, and the compile path looks them up per
# operand. Fails when a non-test file under crates/*/src spells
# `HashMap<` or `HashSet<` with such a key (a tuple key starting with one
# included). Each file is cut at its first column-0 #[cfg(test)] (as
# loc.sh cuts). A key type the compiler infers is not seen: name it.
set -euo pipefail
cd "$(dirname "$0")/.."
key='Hash(Map|Set)<[[:space:]]*\(?[[:space:]]*([a-z_]+::)*(OpId|ValueId|BlockId|RegionId)\b'
found=$(find crates/*/src -name '*.rs' -print0 | sort -z |
  xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' |
  grep -E "$key" || true)
if [ -n "$found" ]; then
  echo "a SipHash map keyed by arena ids (use shmls_ir::ir::IdMap / IdSet):" >&2
  echo "$found" >&2
  exit 1
fi
