#!/bin/sh
# daemon_smoke.sh — end-to-end smoke test of the avsecd campaign
# daemon, run by CI and usable locally. It proves the daemon's
# headline contracts on a small 3-cell campaign, then on the corpus:
#
#   1. Sharding determinism: the daemon's text-format campaign output
#      at two different -jobs values is byte-identical to the output
#      `avsec campaign` prints serially for the same spec.
#   2. Cache transparency: a repeated identical sweep is served from
#      the content-addressed result cache (cache hit counters grow,
#      nothing new is stored) while producing the same bytes again.
#   3. The scenario path: a corpus campaign matches the committed
#      corpus golden (scenarios/GOLDEN.campaign.txt), computed and then
#      again from the cache.
#
# Usage: scripts/daemon_smoke.sh
# Exits non-zero on the first divergence. docs/DAEMON.md documents the
# API driven here.
set -eu

cd "$(dirname "$0")/.."

work="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$work/avsec" ./cmd/avsec
go build -o "$work/avsecd" ./cmd/avsecd

# The 3-cell campaign: three experiments at one seed, the CLI's
# default recheck fraction so both sides render the same header line.
IDS="fig3 exp-ids exp-ota"
IDS_JSON='["fig3", "exp-ids", "exp-ota"]'

echo "== serial golden via avsec campaign"
"$work/avsec" campaign -seeds 1 -seed 42 -jobs 1 -recheck 0.25 $IDS \
    > "$work/serial.txt" 2>/dev/null

echo "== start avsecd"
"$work/avsecd" -addr 127.0.0.1:0 -cache-dir "$work/cache" \
    > "$work/addr.txt" 2>"$work/daemon.err" &
daemon_pid=$!

# Wait for the address announcement, then for the health endpoint.
url=""
for i in $(seq 1 50); do
    url="$(sed -n 's/^avsecd: listening on //p' "$work/addr.txt")"
    [ -n "$url" ] && break
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "daemon never announced its address" >&2
    cat "$work/daemon.err" >&2
    exit 1
fi
for i in $(seq 1 50); do
    curl -sf "$url/api/v1/health" > /dev/null 2>&1 && break
    sleep 0.1
done

post_campaign() {
    curl -sf -X POST "$url/api/v1/campaign" \
        -H 'Content-Type: application/json' -d "$1"
}

echo "== sharded campaign at two -jobs values vs serial golden"
post_campaign "{\"ids\": $IDS_JSON, \"seed_count\": 1, \"jobs\": 1, \"format\": \"text\"}" \
    > "$work/jobs1.txt"
cmp "$work/serial.txt" "$work/jobs1.txt"
post_campaign "{\"ids\": $IDS_JSON, \"seed_count\": 1, \"jobs\": 8, \"format\": \"text\"}" \
    > "$work/jobs8.txt"
cmp "$work/serial.txt" "$work/jobs8.txt"
echo "   byte-identical at jobs=1 and jobs=8"

echo "== repeated sweep must be a cache hit with identical bytes"
hits_before="$(curl -sf "$url/api/v1/cache" | sed -n 's/^ *"hits": \([0-9]*\).*/\1/p')"
post_campaign "{\"ids\": $IDS_JSON, \"seed_count\": 1, \"jobs\": 4, \"format\": \"text\"}" \
    > "$work/repeat.txt"
cmp "$work/serial.txt" "$work/repeat.txt"
hits_after="$(curl -sf "$url/api/v1/cache" | sed -n 's/^ *"hits": \([0-9]*\).*/\1/p')"
if [ "$hits_after" -lt "$((hits_before + 3))" ]; then
    echo "repeat sweep did not hit the cache (hits $hits_before -> $hits_after)" >&2
    exit 1
fi
echo "   cache hits $hits_before -> $hits_after, bytes identical"

echo "== NDJSON stream shape"
post_campaign "{\"ids\": $IDS_JSON, \"seed_count\": 1, \"jobs\": 4}" > "$work/stream.ndjson"
for type in campaign cell done; do
    grep -q "\"type\":\"$type\"" "$work/stream.ndjson" || {
        echo "stream is missing a \"$type\" event" >&2
        exit 1
    }
done
if grep -q '"type":"summary"' "$work/stream.ndjson"; then
    echo "stream carries a summary event; only format text renders the summary" >&2
    exit 1
fi
echo "   campaign/cell/done events present, no summary event"

echo "== corpus campaign vs the corpus golden, computed then cached"
CORPUS_REQ='{"corpus": true, "seed_count": 2, "jobs": 8, "format": "text"}'
post_campaign "$CORPUS_REQ" > "$work/corpus.txt"
cmp scenarios/GOLDEN.campaign.txt "$work/corpus.txt"
hits_before="$(curl -sf "$url/api/v1/cache" | sed -n 's/^ *"hits": \([0-9]*\).*/\1/p')"
post_campaign "$CORPUS_REQ" > "$work/corpus_cached.txt"
cmp scenarios/GOLDEN.campaign.txt "$work/corpus_cached.txt"
hits_after="$(curl -sf "$url/api/v1/cache" | sed -n 's/^ *"hits": \([0-9]*\).*/\1/p')"
cells="$(ls scenarios/*/scenario.ini | wc -l)"
if [ "$hits_after" -lt "$((hits_before + 2 * cells))" ]; then
    echo "repeat corpus sweep did not hit the cache (hits $hits_before -> $hits_after, $cells scenarios)" >&2
    exit 1
fi
echo "   corpus golden matched twice, cache hits $hits_before -> $hits_after"

echo "daemon smoke: OK"
