#!/usr/bin/env bash
# Five unsafe sites: the root Cargo.toml denies `unsafe_code` workspace-wide,
# and it is allowed at exactly these five places --
#   - the huge-page advice in crates/ir/src/interp/storage.rs and the call
#     into the AVX2+FMA copy of the block path in crates/ir/src/bytecode.rs,
#     each one `#[allow(unsafe_code)]` function holding one `unsafe` block;
#   - the three counting-allocator test binaries, each a
#     `#![allow(unsafe_code)]` crate.
# Fails when `unsafe` (or an `allow(unsafe_code)`) is spelled in any other
# .rs under crates/ or tests/, when either function site grows a second
# unsafe block or allow, when `target_feature(enable = ` appears anywhere
# under crates/ but once (the wide copy's wrapper, in bytecode.rs), or when
# the lint leaves the root Cargo.toml.
set -euo pipefail
cd "$(dirname "$0")/.."
advice=crates/ir/src/interp/storage.rs
wide=crates/ir/src/bytecode.rs
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
allowed=" $advice $wide ${allocators[*]} "
elsewhere=""
while IFS= read -r file; do
  case "$allowed" in
    *" $file "*) ;;
    *) elsewhere+="$(grep -HnE "$pattern" "$file")"$'\n' ;;
  esac
done < <(grep -rlE "$pattern" crates tests --include='*.rs' || true)
if [ -n "$elsewhere" ]; then
  echo "unsafe outside the five allowed sites:" >&2
  printf '%s' "$elsewhere" >&2
  status=1
fi
count() { grep -o "$@" | wc -l; }
for site in "$advice" "$wide"; do
  if [ "$(count 'allow(unsafe_code)' "$site")" != 1 ] ||
     [ "$(count -w unsafe "$site")" != 1 ]; then
    echo "$site: expected one #[allow(unsafe_code)] function with one unsafe block" >&2
    status=1
  fi
done
features="$(grep -rnF 'target_feature(enable = ' crates --include='*.rs' || true)"
if [ "$(printf '%s' "$features" | grep -c .)" != 1 ] ||
   [ "${features%%:*}" != "$wide" ]; then
  echo "expected one target_feature(enable = ...) under crates/, in $wide:" >&2
  printf '%s\n' "$features" >&2
  status=1
fi
for site in "${allocators[@]}"; do
  if [ "$(count '^#!\[allow(unsafe_code)\]$' "$site")" != 1 ]; then
    echo "$site: expected one #![allow(unsafe_code)]" >&2
    status=1
  fi
done
exit $status
