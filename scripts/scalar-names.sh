#!/usr/bin/env bash
# One definition per scalar op: the three evaluator files index
# shmls_ir::scalar::TABLE and spell no `arith.*` / `math.*` op name of their
# own. Each is cut at its first column-0 #[cfg(test)] (as loc.sh cuts);
# "arith.constant", which is not a table row, is the one name allowed.
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for f in crates/ir/src/interp.rs crates/fpga-sim/src/stageplan.rs crates/fpga-sim/src/design.rs; do
  names=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" |
    grep -o '"\(arith\|math\)\.[a-z_]*"' | grep -vx '"arith.constant"' | sort -u | tr '\n' ' ' || true)
  if [ -n "$names" ]; then
    echo "$f names scalar ops outside the table: $names" >&2
    status=1
  fi
done
exit $status
