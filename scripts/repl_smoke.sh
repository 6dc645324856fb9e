#!/bin/sh
# Replication smoke: boot a durable primary, two replicas tailing its
# WAL, and the health-checked read router; read through primary and
# router in turn while an INSERT DATA loop hits the primary; kill one
# replica mid-run; assert zero failed reads (the router fails the dead
# replica's requests over), zero failed updates, and that the surviving
# replica converges to zero lag; then check that the router's and the
# survivor's /metrics registries serve their counters with the counts
# the run produced. Run from the repo root. Requires curl and jq.
set -eu

BASE="${REPL_SMOKE_PORT:-18100}"
PPORT=$BASE
R1PORT=$((BASE + 1))
R2PORT=$((BASE + 2))
RTPORT=$((BASE + 3))
TMP="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    for p in $PIDS; do wait "$p" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

command -v jq >/dev/null || { echo "repl smoke: jq is required" >&2; exit 1; }

echo "== build server =="
go build -o "$TMP/server" ./cmd/server

wait_url() {
    i=0
    until curl -fsS "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 150 ]; then
            echo "repl smoke: $1 never answered" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "== start durable primary (lubm scale 1) =="
"$TMP/server" -dataset lubm -scale 1 -data-dir "$TMP/primary-data" \
    -addr "localhost:$PPORT" -query-timeout 5s >"$TMP/primary.log" 2>&1 &
PIDS="$PIDS $!"
wait_url "http://localhost:$PPORT/readyz"

echo "== start two replicas tailing the primary =="
"$TMP/server" -replica-of "http://localhost:$PPORT" -replica-poll 50ms \
    -addr "localhost:$R1PORT" -query-timeout 5s >"$TMP/replica1.log" 2>&1 &
R1_PID=$!
PIDS="$PIDS $R1_PID"
"$TMP/server" -replica-of "http://localhost:$PPORT" -replica-poll 50ms \
    -addr "localhost:$R2PORT" -query-timeout 5s >"$TMP/replica2.log" 2>&1 &
PIDS="$PIDS $!"
wait_url "http://localhost:$R1PORT/readyz"
wait_url "http://localhost:$R2PORT/readyz"

echo "== start health-checked read router over the fleet =="
"$TMP/server" -router-primary "http://localhost:$PPORT" \
    -router-replicas "http://localhost:$R1PORT,http://localhost:$R2PORT" \
    -max-staleness 5s -check-interval 100ms \
    -addr "localhost:$RTPORT" >"$TMP/router.log" 2>&1 &
PIDS="$PIDS $!"
wait_url "http://localhost:$RTPORT/router/metrics"

# http_code prints the status of one request, 000 when none arrived.
http_code() {
    curl -s -o /dev/null -w '%{http_code}' "$@" || true
}

echo "== update loop on the primary, reads through primary + router, killing replica 1 mid-run =="
# The router spreads its share of the reads over the replicas and fails
# over when one dies; writes go to the primary, the only writable node.
(
    n=0
    errs=0
    while [ ! -e "$TMP/stop" ]; do
        n=$((n + 1))
        code=$(http_code "http://localhost:$PPORT/update" --data-urlencode \
            "update=INSERT DATA { <http://smoke.example/s$n> <http://smoke.example/p> \"$n\" }")
        [ "$code" = 200 ] || errs=$((errs + 1))
        sleep 0.1
    done
    echo "$n $errs" >"$TMP/updates"
) &
UPDATER_PID=$!
PIDS="$PIDS $UPDATER_PID"

QUERY='PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?x ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n }'
OK=0
FAILED=0
i=0
while [ "$i" -lt 200 ]; do
    i=$((i + 1))
    if [ "$i" -eq 100 ]; then
        echo "== killing replica 1 =="
        kill -TERM "$R1_PID"
    fi
    for base in "http://localhost:$PPORT" "http://localhost:$RTPORT"; do
        code=$(http_code -G "$base/sparql" --data-urlencode "query=$QUERY")
        if [ "$code" = 200 ]; then
            OK=$((OK + 1))
        else
            FAILED=$((FAILED + 1))
            echo "read via $base answered $code" >&2
        fi
    done
done
touch "$TMP/stop"
wait "$UPDATER_PID"
read -r UPDATES UPDATE_ERRS <"$TMP/updates"

echo "== zero failed reads across the replica kill =="
echo "reads ok=$OK failed=$FAILED updates=$UPDATES updateErrors=$UPDATE_ERRS"
if [ "$FAILED" != "0" ] || [ "$OK" = "0" ]; then
    echo "repl smoke: reads failed during the replica kill" >&2
    exit 1
fi
if [ "$UPDATE_ERRS" != "0" ] || [ "$UPDATES" = "0" ]; then
    echo "repl smoke: update stream saw errors or never ran" >&2
    exit 1
fi

echo "== surviving replica converges to zero lag =="
i=0
while :; do
    STATUS=$(curl -fsS "http://localhost:$R2PORT/repl/status")
    LAG=$(printf '%s' "$STATUS" | jq '.lagRecords')
    CONNECTED=$(printf '%s' "$STATUS" | jq '.connected')
    if [ "$LAG" = "0" ] && [ "$CONNECTED" = "true" ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "repl smoke: replica 2 never caught up: $STATUS" >&2
        exit 1
    fi
    sleep 0.1
done
printf '%s' "$STATUS" | jq -c .
APPLIED=$(printf '%s' "$STATUS" | jq '.recordsApplied')
if [ "$APPLIED" = "0" ]; then
    echo "repl smoke: replica 2 applied no records despite the update stream" >&2
    exit 1
fi

echo "== router and surviving-replica registries =="
# sample prints the value of an unlabeled series in a scrape body,
# failing unless the family is declared a counter.
sample() {
    if ! printf '%s\n' "$1" | grep -qx "# TYPE $2 counter"; then
        echo "repl smoke: $2 is not served as a counter" >&2
        exit 1
    fi
    printf '%s\n' "$1" | awk -v m="$2" '$1 == m { print $2 }'
}
ROUTER_METRICS=$(curl -fsS "http://localhost:$RTPORT/router/metrics")
# The killed replica was ejected and the survivor served reads; primary
# reads (failover) and stale reads depend on timing and may stay 0.
for name in ejections replica_reads primary_reads stale_reads; do
    value=$(sample "$ROUTER_METRICS" "rdfshapes_router_${name}_total")
    echo "rdfshapes_router_${name}_total $value"
    case "$name:$value" in
    ejections:0 | replica_reads:0 | *:)
        echo "repl smoke: rdfshapes_router_${name}_total is ${value:-missing}" >&2
        exit 1
        ;;
    esac
done
REPLICA_APPLIED=$(sample "$(curl -fsS "http://localhost:$R2PORT/metrics")" rdfshapes_repl_records_applied_total)
echo "rdfshapes_repl_records_applied_total $REPLICA_APPLIED"
if [ "$REPLICA_APPLIED" != "$APPLIED" ]; then
    echo "repl smoke: replica 2 serves $REPLICA_APPLIED applied records, /repl/status says $APPLIED" >&2
    exit 1
fi

echo "repl smoke: passed"
