#!/usr/bin/env bash
# Four unsafe sites: the root Cargo.toml denies `unsafe_code` workspace-wide,
# and it is allowed at exactly these four places --
#   - the huge-page advice in crates/ir/src/interp/storage.rs, one
#     `#[allow(unsafe_code)]` function holding the one `unsafe` block of
#     non-test code;
#   - the three counting-allocator test binaries, each a
#     `#![allow(unsafe_code)]` crate.
# Fails when `unsafe` (or an `allow(unsafe_code)`) is spelled in any other
# .rs under crates/ or tests/, when the advice grows a second unsafe block or
# allow, or when the lint leaves the root Cargo.toml.
set -euo pipefail
cd "$(dirname "$0")/.."
advice=crates/ir/src/interp/storage.rs
allocators=(
  crates/core/tests/prepared_alloc.rs
  crates/core/tests/serve_retention.rs
  crates/fpga-sim/tests/cycle_alloc.rs
)
status=0
if ! grep -qx 'unsafe_code = "deny"' Cargo.toml; then
  echo 'the root Cargo.toml does not deny unsafe_code ([workspace.lints.rust])' >&2
  status=1
fi
pattern='\bunsafe\b|(allow|expect)\(unsafe_code\)'
allowed=" $advice ${allocators[*]} "
elsewhere=""
while IFS= read -r file; do
  case "$allowed" in
    *" $file "*) ;;
    *) elsewhere+="$(grep -HnE "$pattern" "$file")"$'\n' ;;
  esac
done < <(grep -rlE "$pattern" crates tests --include='*.rs' || true)
if [ -n "$elsewhere" ]; then
  echo "unsafe outside the four allowed sites:" >&2
  printf '%s' "$elsewhere" >&2
  status=1
fi
count() { grep -o "$@" | wc -l; }
if [ "$(count 'allow(unsafe_code)' "$advice")" != 1 ] ||
   [ "$(count -w unsafe "$advice")" != 1 ]; then
  echo "$advice: expected one #[allow(unsafe_code)] function with one unsafe block" >&2
  status=1
fi
for site in "${allocators[@]}"; do
  if [ "$(count '^#!\[allow(unsafe_code)\]$' "$site")" != 1 ]; then
    echo "$site: expected one #![allow(unsafe_code)]" >&2
    status=1
  fi
done
exit $status
