#!/usr/bin/env bash
# Smoke test of the vizserver binary end to end: one head and two worker
# processes over loopback TCP, run twice — a journaling lone head
# (-shards 1 -journal) and a two-shard plane (-shards 2). Each run renders
# two frames with vizclient and scrapes the head's /metrics; the journaling
# run also checks that the genesis snapshot was written. Every process it
# starts is killed on exit.
#
# Run from the repository root: bash cmd/vizserver/smoke.sh (make vizserver-smoke).
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
pids=()

stop_all() {
	for p in "${pids[@]}"; do
		kill "$p" 2>/dev/null || true
	done
	for p in "${pids[@]}"; do
		wait "$p" 2>/dev/null || true
	done
	pids=()
}
trap 'stop_all; rm -rf "$tmp"' EXIT

fail() {
	echo "vizserver-smoke: $*" >&2
	for f in "$tmp"/*.log; do
		echo "--- $f" >&2
		cat "$f" >&2
	done
	exit 1
}

# wait_for polls until the command succeeds, for up to ten seconds.
wait_for() {
	for _ in $(seq 100); do
		if "$@" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.1
	done
	fail "timed out waiting for: $*"
}

$GO build -o "$tmp/bin/" ./cmd/vizserver ./cmd/vizclient ./cmd/volgen
"$tmp/bin/volgen" -name plume -dims 32x32x32 -chunks 2 -out "$tmp/data/plume" >/dev/null

base=$((20000 + RANDOM % 20000))

# run NAME PORT HEAD-FLAGS...: one head, two workers, two frames; leaves the
# head's /metrics page in $tmp/NAME.metrics.
run() {
	local name=$1 port=$2
	shift 2
	local waddr=127.0.0.1:$port caddr=127.0.0.1:$((port + 1)) haddr=127.0.0.1:$((port + 2))
	"$tmp/bin/vizserver" -mode head -data "$tmp/data" -mem 64MB -workers 2 \
		-worker-addr "$waddr" -client-addr "$caddr" -http "$haddr" "$@" \
		>"$tmp/$name-head.log" 2>&1 &
	pids+=($!)
	wait_for grep -q "waiting for 2 workers" "$tmp/$name-head.log"
	for w in 0 1; do
		"$tmp/bin/vizserver" -mode worker -connect "$waddr" -data "$tmp/data" -mem 64MB -name "w$w" \
			>"$tmp/$name-worker$w.log" 2>&1 &
		pids+=($!)
	done
	wait_for grep -q "serving clients on" "$tmp/$name-head.log"
	"$tmp/bin/vizclient" -addr "$caddr" -dataset plume -size 64 -frames 2 -o "$tmp/$name-frame" \
		>"$tmp/$name-client.log" 2>&1 || fail "$name: vizclient failed"
	[ -s "$tmp/$name-frame_001.png" ] || fail "$name: no second frame written"
	wait_for curl -fsS -o "$tmp/$name.metrics" "http://$haddr/metrics"
	local completed
	completed=$(awk '/^vizsched_jobs_completed_total/ {n += $2} END {print n + 0}' "$tmp/$name.metrics")
	[ "$completed" = 2 ] || fail "$name: /metrics counts $completed completed jobs, want 2"
}

journal=$tmp/head.wal
run lone "$base" -shards 1 -journal "$journal"
[ -s "$journal.snap" ] || fail "lone: no snapshot at $journal.snap"
if grep -q 'shard="' "$tmp/lone.metrics"; then
	fail "lone: a one-shard plane's /metrics carries shard labels"
fi
stop_all
echo "vizserver-smoke: -shards 1 -journal: 2 frames, /metrics scraped, snapshot written"

run sharded "$((base + 3))" -shards 2
grep -q 'shard="1"' "$tmp/sharded.metrics" || fail "sharded: /metrics has no shard=\"1\" sample"
stop_all
echo "vizserver-smoke: -shards 2: 2 frames, /metrics scraped with both shards"
