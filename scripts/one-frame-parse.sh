#!/usr/bin/env bash
# One parse per routed frame: the router reads a request line once
# (`router::Frame::read`) and answers the stats check, builds the request
# and echoes the id from that one document. Fails when non-test
# crates/serve/src/router.rs spells `Json::parse(` more than once, or
# `Request::parse(` at all (it would parse the line a second time; the
# router builds requests with `Request::from_json`). The file is cut at its
# first column-0 #[cfg(test)] (as loc.sh cuts).
set -euo pipefail
cd "$(dirname "$0")/.."
file=crates/serve/src/router.rs
non_test=$(awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file")
status=0
json=$(grep -F 'Json::parse(' <<<"$non_test" || true)
if [ "$(grep -c . <<<"$json")" -gt 1 ]; then
  echo "the router parses a frame's JSON in more than one place:" >&2
  echo "$json" >&2
  status=1
fi
request=$(grep -F 'Request::parse(' <<<"$non_test" || true)
if [ -n "$request" ]; then
  echo "the router re-parses a frame with Request::parse (use Request::from_json on the one document):" >&2
  echo "$request" >&2
  status=1
fi
exit $status
