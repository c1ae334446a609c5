#!/bin/sh
# fleet_smoke.sh — end-to-end smoke test of the fleet coordinator, run
# by CI and usable locally. Two real avsecd processes share one cache
# directory; the test proves the coordinator's two headline contracts
# on a 6-cell campaign (3 experiments x 2 seeds, default recheck):
#
#   1. Merge determinism: `avsec fleet` stdout is byte-identical to the
#      serial `avsec campaign` golden, for a single worker at chunk 1,
#      a different single worker at chunk 3, and both workers together.
#   2. Cross-worker cache reuse: after worker A populates the shared
#      cache, a sweep dispatched only to worker B is served entirely
#      from A's entries (B's hit counter covers every cell, B stores
#      nothing new) while producing the same bytes again.
#
# Usage: scripts/fleet_smoke.sh
# Exits non-zero on the first divergence. docs/FLEET.md documents the
# coordinator driven here.
set -eu

cd "$(dirname "$0")/.."

work="$(mktemp -d)"
# start_daemon runs inside $(...), so a pid it recorded in a shell
# variable would never reach this trap; each daemon's pid goes to
# $work/<name>.pid instead. The daemons are not children of this shell,
# so cleanup polls for their exit rather than using `wait`.
cleanup() {
    for f in "$work"/*.pid; do
        [ -f "$f" ] || continue
        p="$(cat "$f")"
        kill "$p" 2>/dev/null || true
        for i in $(seq 1 50); do
            kill -0 "$p" 2>/dev/null || break
            sleep 0.1
        done
    done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$work/avsec" ./cmd/avsec
go build -o "$work/avsecd" ./cmd/avsecd

# The campaign grid: three experiments at two seeds, the CLI's default
# recheck fraction so both sides render the same header line.
IDS="fig3 exp-ids exp-ota"
CELLS=6

# start_daemon <name> — starts an avsecd on the shared cache dir,
# records its pid in $work/<name>.pid and echoes its announced base URL.
start_daemon() {
    "$work/avsecd" -addr 127.0.0.1:0 -cache-dir "$work/cache" \
        > "$work/$1.addr" 2>"$work/$1.err" &
    echo "$!" > "$work/$1.pid"
    url=""
    for i in $(seq 1 50); do
        url="$(sed -n 's/^avsecd: listening on //p' "$work/$1.addr")"
        [ -n "$url" ] && break
        sleep 0.1
    done
    if [ -z "$url" ]; then
        echo "daemon $1 never announced its address" >&2
        cat "$work/$1.err" >&2
        exit 1
    fi
    for i in $(seq 1 50); do
        curl -sf "$url/api/v1/health" > /dev/null 2>&1 && break
        sleep 0.1
    done
    echo "$url"
}

# cache_stat <url> <field> — one counter from a worker's /api/v1/cache.
cache_stat() {
    curl -sf "$1/api/v1/cache" | sed -n "s/^ *\"$2\": \([0-9]*\).*/\1/p"
}

echo "== serial golden via avsec campaign"
"$work/avsec" campaign -seeds 2 -seed 42 -jobs 1 -recheck 0.25 $IDS \
    > "$work/serial.txt" 2>/dev/null

echo "== start two avsecd workers on one shared cache dir"
url_a="$(start_daemon worker-a)"
url_b="$(start_daemon worker-b)"
echo "   worker A $url_a, worker B $url_b"

echo "== fleet on worker A only (chunk 1) vs serial golden"
"$work/avsec" fleet -workers "$url_a" -chunk 1 \
    -seeds 2 -seed 42 -recheck 0.25 $IDS \
    > "$work/fleet_a.txt" 2>/dev/null
cmp "$work/serial.txt" "$work/fleet_a.txt"
stores_a="$(cache_stat "$url_a" stores)"
if [ "$stores_a" -lt "$CELLS" ]; then
    echo "worker A stored only $stores_a of $CELLS cells" >&2
    exit 1
fi
echo "   byte-identical; worker A stored $stores_a entries"

echo "== fleet on worker B only (chunk 3) must reuse A's cache entries"
"$work/avsec" fleet -workers "$url_b" -chunk 3 \
    -seeds 2 -seed 42 -recheck 0.25 $IDS \
    > "$work/fleet_b.txt" 2>/dev/null
cmp "$work/serial.txt" "$work/fleet_b.txt"
hits_b="$(cache_stat "$url_b" hits)"
stores_b="$(cache_stat "$url_b" stores)"
if [ "$hits_b" -lt "$CELLS" ]; then
    echo "worker B hit the shared cache only $hits_b times for $CELLS cells" >&2
    exit 1
fi
if [ "$stores_b" -ne 0 ]; then
    echo "worker B recomputed $stores_b cells that worker A had cached" >&2
    exit 1
fi
echo "   byte-identical; worker B: $hits_b hits, 0 stores (all cross-worker reuse)"

echo "== fleet across both workers (chunk 2) vs serial golden"
"$work/avsec" fleet -workers "$url_a,$url_b" -chunk 2 \
    -seeds 2 -seed 42 -recheck 0.25 $IDS \
    > "$work/fleet_ab.txt" 2>/dev/null
cmp "$work/serial.txt" "$work/fleet_ab.txt"
echo "   byte-identical"

echo "fleet smoke: OK"
