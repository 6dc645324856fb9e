#!/bin/sh
# Repo verification: static checks, the tier-1 suite, the race detector
# over the concurrency-sensitive packages (the observability collector,
# the live update layer, the engine's cancellation paths, the HTTP
# server's governor, the shard coordinator, and the facade lifecycle),
# 10 s fuzz smokes of the binary codec (internal/frame: WAL records and
# snapshots behind valid checksums), of the store's index access paths
# and of the SPARQL, Turtle and N-Triples parsers, the benchmark/
# module's own vet, tests and smoke run (a nested
# module the root ./... patterns do not reach), and the replication
# smoke. Run from the repo root.
set -eu

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
fmtout=$(gofmt -l .)
if [ -n "$fmtout" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmtout" >&2
    exit 1
fi

echo "== go test (tier-1) =="
go test ./...

echo "== go test -race (obsv, live, engine, server) =="
go test -race ./internal/obsv ./internal/live ./internal/engine ./internal/server

echo "== go test -race (facade governor: lifecycle, budgets, deadlines) =="
go test -race -run 'TestQueryCtx|TestWithDefault|TestWithLimits|TestClose|TestUpdateCtx|TestOpenClose|TestWithParallelism' .

echo "== go test -race (parallel-vs-serial differential over all workloads) =="
go test -race -run 'TestParallelDifferentialWorkloads' ./internal/integration

echo "== go test -race (merge-vs-nested-loop differential, governor equivalence) =="
go test -race -run 'TestMergeDifferentialWorkloads|TestMergeGovernorEquivalence|TestMergeSelectedOnWorkload|TestRepeatedVarDifferentialWorkloads' ./internal/integration

echo "== go test -race (shard coordinator: merge, pruning, per-shard stats) =="
go test -race ./internal/shard

echo "== go test -race (sharded-vs-unsharded differential over all workloads) =="
go test -race -run 'TestShardedDifferentialWorkloads' ./internal/integration

echo "== go test -race (durability: WAL crash matrix, fault injection) =="
go test -race ./internal/wal

echo "== go test -race (replication: log shipping, follower fault matrix incl. stalls, blackholes and bit flips, router) =="
go test -race ./internal/repl

echo "== go test -race (facade replication: bootstrap, re-bootstrap, stats oracle) =="
go test -race -run 'TestReplica|TestServerWALPoisoned|TestServerReplication' .

echo "== go test -race (facade durability: recovery, stats oracle, crash matrix) =="
go test -race -run 'TestDurability|TestOpen|TestWithDurability|TestCheckpoint|TestWALFailure|TestFacadeCrashMatrix' .

echo "== binary codec fuzz smoke (checksum-sealed WAL record payloads and snapshot bodies) =="
go test -run=NONE -fuzz=FuzzDecode -fuzztime=10s ./internal/frame

echo "== index access-path fuzz smoke (offset tables, in-run search vs a linear filter) =="
go test -run=NONE -fuzz=FuzzStoreMatch -fuzztime=10s ./internal/store

echo "== parser fuzz smokes (SPARQL, Turtle, N-Triples: never panic) =="
for target in FuzzSPARQLParse FuzzTurtle FuzzNTriples; do
    go test -run=NONE -fuzz="^$target\$" -fuzztime=10s ./internal/integration
done

echo "== benchmark bit-rot smoke (compile and run every benchmark once) =="
go test -run=NONE -bench=. -benchtime=1x ./... > /dev/null

echo "== benchmark rig (nested module): vet + its own tests, no server =="
go vet -C benchmark ./...
go test -C benchmark ./...

echo "== benchmark rig smoke (four workloads on a real cmd/server, oracle digests, churn kill/restart, traced run) =="
go test -C benchmark -run Smoke .

echo "== replication smoke (primary + 2 replicas + router, replica kill mid-run) =="
sh scripts/repl_smoke.sh

echo "verify: all checks passed"
