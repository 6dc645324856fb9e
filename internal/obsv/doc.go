// Package obsv is the observability layer: per-query execution traces
// and cumulative Prometheus-style metrics for the quantities the paper's
// evaluation is built on — intermediate-result sizes (the true join
// cardinalities of Table 2), estimation accuracy as q-error (Section 7),
// index operations, and wall time under an operation budget (the analog
// of the paper's 10-minute timeout).
//
// The package is deliberately a leaf: it depends only on the standard
// library, so every layer (engine, facade, server, bench harness) can
// feed it without import cycles.
//
// # The nil-collector convention
//
// Instrumentation must cost nothing when nobody is looking. Every layer
// follows the same rule:
//
//   - A nil *Collector is valid. Record, Recent, TraceCount, and
//     WritePrometheus are all nil-receiver safe no-ops, so callers never
//     guard with `if c != nil`.
//   - The engine takes an Observer callback in its Options; when it is
//     nil, engine.Run performs no clock reads and no allocation — the
//     entire cost of the disabled path is two nil checks
//     (BenchmarkEngineObserverOverhead pins this).
//   - The facade (rdfshapes.DB) assembles a QueryTrace only when a
//     collector is installed with DB.SetCollector.
//
// # Traces
//
// A QueryTrace records one executed query: the plan chosen, the
// per-pattern estimated vs. actual intermediate cardinalities with their
// q-errors, rows returned, index rows visited, wall time, and whether
// the operation budget (TimedOut) or a LIMIT (LimitHit) cut execution
// short. Traces live in a bounded Ring buffer; the server exposes the
// most recent ones at GET /trace/recent.
//
// # Metrics
//
// The Collector aggregates every recorded trace into counters and
// histograms (queries served by planner and status, latency buckets,
// per-planner q-error distribution, rows visited, join steps by
// algorithm) and renders them in Prometheus text exposition format,
// served at GET /metrics.
//
// Every family reaches the output through Collector.Register and
// renders in name order. A family is one of three types: CounterVec and
// HistogramVec count events as they happen; Func reads, at scrape time,
// a count another component already keeps (a DB's durability or
// adaptive-template statistics, the replica follower, the router), so
// no count is kept twice and a collector installed late still serves
// the whole history. See docs/OBSERVABILITY.md for the full metric
// inventory and the owner of each count.
package obsv
