#!/usr/bin/env bash
# Smoke test of the vizbench binary: Table II, Fig. 4 and every extension
# sweep at a small scale, which must leave ten non-empty CSV files (fig4 and
# one per sweep), and an unknown -only name, which must be refused.
#
# Run from the repository root: bash cmd/vizbench/smoke.sh (make vizbench-smoke).
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
	echo "vizbench-smoke: $*" >&2
	exit 1
}

$GO build -o "$tmp/vizbench" ./cmd/vizbench
sweeps="failsweep replsweep qossweep prefsweep hasweep shardsweep compsweep elasticsweep fracsweep"
"$tmp/vizbench" -scale 0.05 -parallel 2 -only "table2,fig4,${sweeps// /,}" -csvdir "$tmp/csv" \
	>"$tmp/out.txt" 2>"$tmp/err.txt" || { cat "$tmp/err.txt" >&2; fail "vizbench exited non-zero"; }
for name in fig4 $sweeps; do
	[ -s "$tmp/csv/$name.csv" ] || fail "no $name.csv written"
done
n=$(find "$tmp/csv" -name '*.csv' -size +0 | wc -l)
[ "$n" -eq 10 ] || fail "$n non-empty CSV files, want 10"

if "$tmp/vizbench" -only nosuch >"$tmp/out.txt" 2>"$tmp/err.txt"; then
	fail "-only nosuch exited 0"
fi
grep -q 'unknown name "nosuch"' "$tmp/err.txt" || fail "-only nosuch did not name the unknown key"
echo "vizbench-smoke: 10 CSV files written, -only nosuch refused"
