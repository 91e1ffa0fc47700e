//! `obs` — the telemetry layer under every QB2OLAP serving crate.
//!
//! The serving stack (catalog refreshes, columnar scans, SPARQL
//! evaluation, exploration navigation) is instrumented through exactly
//! three primitives, all defined here and none pulling a single external
//! dependency:
//!
//! * **[`metrics`]** — a [`MetricsRegistry`] of atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed latency [`Histogram`]s (p50/p95/p99),
//!   snapshotable at any moment into a serializable [`MetricsSnapshot`]
//!   with a stable text and JSON rendering. Registries are plain values:
//!   the cube catalog owns one, the fuzz campaign owns another, and the
//!   `Qb2Olap` facade exposes the serving registry as
//!   `Qb2Olap::metrics()`.
//! * **[`mod@span`]** — nestable timing spans with a thread-local stack and a
//!   pluggable [`Subscriber`]. Production code runs with no subscriber
//!   installed, in which case [`span()`] never reads the clock — the
//!   guard is a no-op struct and the instrumented hot paths stay at
//!   uninstrumented speed (repro's E16 measures this). Tests and repro
//!   harnesses install a [`CollectingSubscriber`] to capture the full span
//!   tree (a catalog `serve-snapshot` span containing the overlay-accrete
//!   or fold span, a QL execute span containing the scan span, …).
//! * **[`profile`]** — an [`ExecutionProfile`] attached to query results:
//!   the logical plan (one line per pipeline step), per-phase timings and
//!   row counts, and named counters (rows scanned, tombstones skipped,
//!   dictionary lookups, roll-up map lookups). [`ExecutionProfile::render`]
//!   is the cube's `EXPLAIN ANALYZE`.
//!
//! Nothing here reads the environment.
//!
//! The metric naming scheme is dotted lowercase, `<crate>.<subsystem>.<what>`
//! (`catalog.refresh.delta`, `cubestore.scan.rows`, `explorer.members`,
//! `fuzz.ql.production.*`); histogram names end in the unit
//! (`catalog.refresh.duration_ns`). ARCHITECTURE.md §Observability has the
//! full catalog.

#![warn(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::{ExecutionProfile, ProfileStep};
pub use span::{
    clear_global_subscriber, set_global_subscriber, span, with_subscriber, CollectingSubscriber,
    NoopSubscriber, SpanGuard, SpanRecord, Subscriber,
};
