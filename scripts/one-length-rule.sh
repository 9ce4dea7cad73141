#!/usr/bin/env bash
# One length rule: `clippy::too_many_lines` is denied once, in the root
# Cargo.toml's [workspace.lints], and every crate inherits it. Fails when a
# crates/*/Cargo.toml has no `[lints]` table reading `workspace = true` (a
# new crate would silently opt out), or when `too_many_lines` is spelled in
# any .rs under crates/ (an attribute that would allow, or re-deny, the
# rule file by file).
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for manifest in crates/*/Cargo.toml; do
  if ! awk '/^\[/ { in_lints = ($0 == "[lints]") } in_lints && /^workspace *= *true/ { found = 1 }
            END { exit !found }' "$manifest"; then
    echo "$manifest does not inherit the workspace lints ([lints] workspace = true)" >&2
    status=1
  fi
done
hits=$(grep -rn too_many_lines crates --include='*.rs' || true)
if [ -n "$hits" ]; then
  echo "too_many_lines is set outside the root Cargo.toml's [workspace.lints]:" >&2
  echo "$hits" >&2
  status=1
fi
exit $status
