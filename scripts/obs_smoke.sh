#!/bin/sh
# obs_smoke.sh — end-to-end smoke test of the observability surface.
#
# Builds the homesight binary once, then starts `homesight experiments`
# on a scaled-down deployment with -debug-addr on a kernel-assigned port,
# waits for the debug server to announce itself on stderr, curls /healthz
# and /metrics, and waits for the runner's series of the experiment it
# ran. Then boots `homesight collector` as a 2-shard fleet to verify the
# homesight_fleet_* families register the moment the shards start, then
# runs a demo collector with -live and curls /api/v1/homes/{gw}/live plus
# the homesight_live_* families — the streaming analytics tier end to
# end. Then `homesight store compact` and `store verify` run on that
# demo's partition, and finally `homesight store serve` on it verifies the
# homesight_store_* families and the query tier: the /api/v1/* endpoints
# answering the versioned envelope, a raw /series day in columnar form, a
# 3h-binned /series, a home's /summary served twice (the second from the
# memo), and the homesight_query_* families on /metrics (shard stores keep
# private registries, FLEET.md, so the store families are scraped here).
# Wired into `make check` via the obs-smoke target.
#
# Exits non-zero (and prints the captured log) on any missing endpoint
# or metric, so a refactor that silently unregisters a family fails CI.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)
PID= QPID= FPID= LPID=
trap 'kill "$PID" "$QPID" "$FPID" "$LPID" 2>/dev/null || true; wait "$PID" "$QPID" "$FPID" "$LPID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

# await_addr PID LOG MSG WHAT SERVER polls LOG until the program logs
# `msg="MSG" ... addr=<host:port>` and sets ADDR to that address. It
# fails, dumping LOG, if WHAT (PID) exits first or SERVER never
# announces within 150 polls 0.2 s apart.
await_addr() {
    ADDR=
    i=0
    while [ $i -lt 150 ]; do
        # The background redirect may not have created LOG yet.
        if [ -f "$2" ]; then
            ADDR=$(sed -n "s/.*msg=\"$3\".* addr=\([0-9.:]*\).*/\1/p" "$2" | head -n 1)
            [ -n "$ADDR" ] && return 0
        fi
        if ! kill -0 "$1" 2>/dev/null; then
            echo "obs-smoke: $4 exited before serving" >&2
            cat "$2" >&2
            exit 1
        fi
        i=$((i + 1))
        sleep 0.2
    done
    echo "obs-smoke: $5 never announced an address" >&2
    cat "$2" >&2
    exit 1
}

# Built once and run directly, so every kill below reaches the program
# itself (a killed `go run` leaves its child running).
$GO build -o "$TMP/homesight" ./cmd/homesight

# A tiny run (-run fig5 keeps it to one experiment) held open long
# enough to scrape; -hold is the window, generous for slow CI machines.
"$TMP/homesight" experiments -homes 4 -weeks 2 -run fig5 \
    -debug-addr 127.0.0.1:0 -hold 60s \
    >"$TMP/stdout" 2>"$TMP/stderr" &
PID=$!

# The server logs `msg="debug server listening" ... addr=<host:port>`.
await_addr "$PID" "$TMP/stderr" "debug server listening" experiments "debug server"

fail() {
    echo "obs-smoke: $1" >&2
    cat "$TMP/stderr" >&2
    exit 1
}

# /healthz must answer "ok" while the run is live.
HEALTH=$(curl -fsS --max-time 10 "http://$ADDR/healthz") || fail "/healthz unreachable"
[ "$HEALTH" = "ok" ] || fail "/healthz said '$HEALTH', want 'ok'"

# /metrics must carry the runner family, and once the run is done a
# series for the one experiment this leg ran.
i=0
while :; do
    curl -fsS --max-time 10 "http://$ADDR/metrics" >"$TMP/metrics" || fail "/metrics unreachable"
    grep -q "^# TYPE homesight_runner_experiment_seconds " "$TMP/metrics" ||
        fail "/metrics misses homesight_runner_experiment_seconds"
    grep -q '^homesight_runner_experiment_seconds_count{experiment="fig5"} 1$' "$TMP/metrics" && break
    [ $i -lt 150 ] || fail "/metrics has no homesight_runner_experiment_seconds series for fig5"
    i=$((i + 1))
    sleep 0.2
done

# pprof rides on the same mux.
curl -fsS --max-time 10 "http://$ADDR/debug/pprof/cmdline" >/dev/null || fail "pprof unreachable"

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=

# Fleet tier: a collector registers the homesight_fleet_* families (and
# binds each shard's labelled series) as the shards start, before any
# report arrives; its partitions live under -data-dir.
"$TMP/homesight" collector -shards 2 -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 \
    -data-dir "$TMP/fleet" \
    >"$TMP/f-stdout" 2>"$TMP/f-stderr" &
FPID=$!

await_addr "$FPID" "$TMP/f-stderr" "debug server listening" "fleet collector" "fleet collector debug server"
FADDR=$ADDR

ffail() {
    echo "obs-smoke: $1" >&2
    cat "$TMP/f-stderr" >&2
    exit 1
}

curl -fsS --max-time 10 "http://$FADDR/metrics" >"$TMP/f-metrics" || ffail "fleet /metrics unreachable"
for metric in \
    homesight_fleet_shard_reports_total \
    homesight_fleet_shard_append_errors_total \
    homesight_fleet_shard_batches_total \
    homesight_fleet_shard_frames_rejected_total \
    homesight_fleet_shard_conns_opened_total \
    homesight_fleet_routed_reports_total \
    homesight_fleet_batches_flushed_total \
    homesight_fleet_rebalances_total \
    homesight_fleet_replayed_reports_total \
    homesight_fleet_reassigned_reports_total \
    homesight_fleet_replay_lag_seconds \
    homesight_fleet_ingest_seconds; do
    grep -q "^# TYPE $metric " "$TMP/f-metrics" || ffail "fleet /metrics misses $metric"
done
# The per-shard series are bound at startup, so the shard label must
# already be present.
for shard in shard-0000 shard-0001; do
    for metric in \
        homesight_fleet_shard_reports_total \
        homesight_fleet_shard_append_errors_total \
        homesight_fleet_shard_frames_rejected_total \
        homesight_fleet_shard_conns_opened_total; do
        grep -q "$metric{shard=\"$shard\"}" "$TMP/f-metrics" \
            || ffail "fleet /metrics misses the $shard labelled series of $metric"
    done
done

kill "$FPID" 2>/dev/null || true
wait "$FPID" 2>/dev/null || true
FPID=

# Live tier: a demo collector with -live runs a livestats tracker on
# every shard, exports the homesight_live_* families and serves
# /api/v1/homes/{gw}/live on the debug server; -hold keeps it up after
# the campaign so the snapshot can be scraped. Synth gateway IDs are
# gw%03d, so gw000 always exists.
"$TMP/homesight" collector -demo -homes 2 -weeks 1 -live -data-dir "$TMP/live" \
    -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -hold 60s \
    >"$TMP/l-stdout" 2>"$TMP/l-stderr" &
LPID=$!

await_addr "$LPID" "$TMP/l-stderr" "debug server listening" "live collector" "live collector debug server"
LADDR=$ADDR

lfail() {
    echo "obs-smoke: $1" >&2
    cat "$TMP/l-stderr" >&2
    exit 1
}

# The route 404s until the campaign's first gw000 report lands on the
# tracker; poll until the snapshot answers.
i=0
LIVE_OK=
while [ $i -lt 150 ]; do
    if curl -fsS --max-time 10 "http://$LADDR/api/v1/homes/gw000/live" >"$TMP/l-live" 2>/dev/null; then
        LIVE_OK=1
        break
    fi
    if ! kill -0 "$LPID" 2>/dev/null; then
        lfail "live collector died before /live answered"
    fi
    i=$((i + 1))
    sleep 0.2
done
[ -n "$LIVE_OK" ] || lfail "/api/v1/homes/gw000/live never answered"
grep -q '"version":"v1"' "$TMP/l-live" || lfail "/live not wrapped in the v1 envelope"
grep -q '"pearson"' "$TMP/l-live" || lfail "/live payload carries no operator state"

curl -fsS --max-time 10 "http://$LADDR/metrics" >"$TMP/l-metrics" || lfail "live /metrics unreachable"
for metric in \
    homesight_live_reports_total \
    homesight_live_homes \
    homesight_live_update_seconds; do
    grep -q "^# TYPE $metric " "$TMP/l-metrics" || lfail "live /metrics misses $metric"
done

kill "$LPID" 2>/dev/null || true
wait "$LPID" 2>/dev/null || true
LPID=

# Compaction CLI: `homesight store compact` rewrites the live demo's
# partition (flushing its WAL tail) through the streaming segment writer,
# and `store verify` re-reads every block of the result; the query tier
# below then serves the compacted store. A non-zero exit of either fails.
for sub in compact verify; do
    "$TMP/homesight" store $sub -dir "$TMP/live/shard-0000" >"$TMP/c-out" 2>&1 || {
        cat "$TMP/c-out" >&2
        echo "obs-smoke: homesight store $sub failed" >&2
        exit 1
    }
done

# Storage and query tiers: store serve on the live demo's partition
# (the collector above drained and closed it on exit) registers the
# homesight_store_* families as the store opens, must answer
# /api/v1/homes with the versioned envelope, serves a raw day and the
# 3h bins of the first gateway's first device and that gateway's
# /summary, and puts the homesight_query_* families on the same /metrics
# surface.
"$TMP/homesight" store serve -dir "$TMP/live/shard-0000" -addr 127.0.0.1:0 \
    >"$TMP/q-stdout" 2>"$TMP/q-stderr" &
QPID=$!

await_addr "$QPID" "$TMP/q-stderr" "query server listening" "store serve" "query server"
QADDR=$ADDR

qfail() {
    echo "obs-smoke: $1" >&2
    cat "$TMP/q-stderr" >&2
    exit 1
}

curl -fsS --max-time 10 "http://$QADDR/api/v1/homes" >"$TMP/q-homes" || qfail "/api/v1/homes unreachable"
grep -q '"version":"v1"' "$TMP/q-homes" || qfail "/api/v1/homes not wrapped in the v1 envelope"
GW=$(sed -n 's/.*"data":\[{"id":"\([^"]*\)".*/\1/p' "$TMP/q-homes")
[ -n "$GW" ] || qfail "/api/v1/homes lists no gateway"
curl -fsS --max-time 10 "http://$QADDR/api/v1/homes/$GW/devices" >"$TMP/q-devices" || qfail "/api/v1/homes/$GW/devices unreachable"
MAC=$(sed -n 's/.*"data":\[{"mac":"\([^"]*\)".*/\1/p' "$TMP/q-devices")
[ -n "$MAC" ] || qfail "$GW lists no device"
# A raw day (the synthetic campaign starts 2014-03-17): "t" offsets from
# "from" and "val" samples, never the retired one-object-per-point form.
curl -fsS --max-time 10 "http://$QADDR/api/v1/series?gw=$GW&device=$MAC&from=2014-03-17T00:00:00Z&to=2014-03-18T00:00:00Z" \
    >"$TMP/q-series" || qfail "raw /api/v1/series unreachable"
grep -q '"t":\[' "$TMP/q-series" || qfail "raw /series carries no \"t\" column"
grep -q '"val":\[' "$TMP/q-series" || qfail "raw /series carries no \"val\" column"
if grep -q '"point[s]"' "$TMP/q-series"; then
    qfail "raw /series still writes one object per point"
fi
# A 3h-binned series answers from the segments' rollup blocks.
curl -fsS --max-time 10 "http://$QADDR/api/v1/series?gw=$GW&device=$MAC&gran=3h" \
    >"$TMP/q-bins" || qfail "binned /api/v1/series unreachable"
grep -q '"bins":\[' "$TMP/q-bins" || qfail "3h /series carries no \"bins\" array"
# The home's Def. 4 summary, twice: the first GET builds it, the second
# must be a memo hit (checked on /metrics below).
for n in 1 2; do
    curl -fsS --max-time 30 "http://$QADDR/api/v1/homes/$GW/summary" \
        >"$TMP/q-summary" || qfail "/api/v1/homes/$GW/summary unreachable (GET $n)"
done
# Both lists are arrays, never null, empty or not.
grep -q '"dominants":\[' "$TMP/q-summary" || qfail "/summary carries no \"dominants\" array"
grep -q '"devices":\[' "$TMP/q-summary" || qfail "/summary carries no \"devices\" array"

curl -fsS --max-time 10 "http://$QADDR/metrics" >"$TMP/q-metrics" || qfail "query /metrics unreachable"
for metric in \
    homesight_store_appends_total \
    homesight_store_points_total \
    homesight_store_segments \
    homesight_store_wal_fsync_seconds \
    homesight_query_requests_total \
    homesight_query_response_bytes_total \
    homesight_query_cache_misses_total; do
    grep -q "^# TYPE $metric " "$TMP/q-metrics" || qfail "query /metrics misses $metric"
done
grep -q '^homesight_query_response_bytes_total{endpoint="series"} [1-9]' "$TMP/q-metrics" \
    || qfail "query /metrics counted no /series response bytes"
grep -q '^homesight_query_cache_hits_total [1-9]' "$TMP/q-metrics" \
    || qfail "query /metrics counted no cache hit after the repeated /summary"

kill "$QPID" 2>/dev/null || true
wait "$QPID" 2>/dev/null || true
QPID=

echo "obs-smoke: /healthz, /metrics (runner+fleet+store+query+live), /api/v1 and pprof all served"
