#!/usr/bin/env bash
# One ledger of cache dispositions, one single-flight map under both caches:
# - the four wire labels are spelled in crates/core/src/cache.rs alone
#   (`Disposition::as_str` / `from_label`, `DispositionCounts`); no other
#   file under crates/*/src matches on them or writes them;
# - crates/core/src/persist.rs keeps design records in a `SingleFlight` of
#   its own and names `CompileCache` only as `CompileCache::key`.
# Each file is cut at its first column-0 #[cfg(test)] (as loc.sh cuts).
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
non_test() { awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$1"; }
while IFS= read -r -d '' f; do
  [ "$f" = crates/core/src/cache.rs ] && continue
  hits=$(non_test "$f" | grep -F -e '"disk-hit"' -e '"coalesced"' -e 'Some("hit")' -e '"miss" =>' || true)
  if [ -n "$hits" ]; then
    echo "spells a disposition label outside cache.rs (use Disposition / DispositionCounts):" >&2
    echo "$hits" >&2
    status=1
  fi
done < <(find crates/*/src -name '*.rs' -print0 | sort -z)
hits=$(non_test crates/core/src/persist.rs | sed 's/CompileCache::key//g' | grep -F 'CompileCache' || true)
if [ -n "$hits" ]; then
  echo "persist.rs names CompileCache other than as CompileCache::key (it keeps records, not kernels):" >&2
  echo "$hits" >&2
  status=1
fi
exit $status
