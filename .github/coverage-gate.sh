#!/usr/bin/env bash
# Fails when the statement coverage of any package group below drops
# under its recorded baseline. Reads the profile written by
# `go test -coverprofile=coverage.out ./...`.
#
#   bash .github/coverage-gate.sh [coverage.out]
set -euo pipefail

profile="${1:-coverage.out}"

# name, extended regexp matched against the profile's lines, baseline %.
gates='
internal/network/...  internal/network        83.3
internal/identity     internal/identity       78
internal/{keys,dkg}   internal/(keys|dkg)     88.1
internal/share        internal/share          86
internal/schemes/...  internal/schemes/       87.9
internal/router       internal/router         75
internal/precompute   internal/precompute     90
internal/service      internal/service        81
internal/protocols    internal/protocols      83.0
internal/orchestration internal/orchestration 94.7
examples/frontrunning/tob examples/frontrunning/tob 91.2
'

part="$(mktemp)"
trap 'rm -f "$part"' EXIT

failed=0
while read -r name pattern baseline; do
	[ -n "$name" ] || continue
	head -1 "$profile" >"$part"
	grep -E "$pattern" "$profile" >>"$part" || true
	total=$(go tool cover -func="$part" | awk '/^total:/ {sub(/%/,"",$3); print $3}')
	if [ -z "$total" ]; then
		echo "$name: could not compute coverage"
		failed=1
		continue
	fi
	echo "$name coverage: ${total}% (baseline ${baseline}%)"
	if ! awk -v t="$total" -v b="$baseline" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }'; then
		echo "coverage of $name dropped below the recorded baseline ${baseline}%"
		failed=1
	fi
done <<<"$gates"
exit "$failed"
