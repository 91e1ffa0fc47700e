//! The benchmark's name contract: every workload and metric the harness
//! emits, declared once. `BENCHMARK.json` at the repository root carries the
//! same names; the test below fails when the two drift apart.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WIRE_SELECTIVE: &str = "wire-selective";
pub const WIRE_ROLLUP: &str = "wire-rollup";
pub const SERVE_UNDER_WRITES: &str = "serve-under-writes";
pub const COLD_BUILD: &str = "cold-build";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: WIRE_SELECTIVE,
        why: "results of at most 200 cells over HTTP: a full scan for a few cells plus the per-request fixed costs (parse, prepare, pin, dispatch); JSON and socket write do little",
    },
    Workload {
        name: WIRE_ROLLUP,
        why: "results of 1 000 to 33 000 cells and MB bodies over HTTP: cell assembly, JSON and socket write do most of the work, fixed costs are noise",
    },
    Workload {
        name: SERVE_UNDER_WRITES,
        why: "one reader beside a writer that appends batches and forces background folds: read-side gains that tax appends, copy-on-write or folds show",
    },
    Workload {
        name: COLD_BUILD,
        why: "raw triples to first answer with no HTTP and no warm cube: bulk load, enrichment, SPARQL and cube build dominate, the path every fold pays",
    },
];

/// How long one run measures; `BENCHMARK.json` says the same.
pub const RUN_SECONDS: u64 = 12;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// One bound for every end-to-end metric, the widest the benchmark contract
/// allows: this box's speed drifts by 10 to 20 % over tens of minutes, and
/// the widest spread between ten seeds measured on a quiet box was 12.5 %
/// (`peak_rss_mb` under folds) and 6.5 % for the timed metrics. A claim finer
/// than this needs paired runs of both commits (`qbbench compare`).
const BOUND: f64 = 0.25;

const fn end_to_end(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: BOUND,
    }
}

pub const END_TO_END: [EndToEnd; 4] = [
    // Median of three set-ups of the workload (see README).
    end_to_end("setup_s", "s", "lower"),
    // Latency of a typical QL answer: over HTTP, under writes, or from cold.
    end_to_end("ql_p50_ms", "ms", "lower"),
    // QL answers per second of the closed loop.
    end_to_end("ql_qps", "1/s", "higher"),
    // `VmHWM` at the end of the measured window.
    end_to_end("peak_rss_mb", "MB", "lower"),
];

/// One per-layer metric and the prediction recorded before measuring:
/// which end-to-end metrics it should move, on which workloads.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static [&'static str],
    pub on: &'static [&'static str],
}

type Prediction = (&'static [&'static str], &'static [&'static str]);

/// Per-request fixed costs: visible where results are small.
const FIXED: Prediction = (
    &["ql_p50_ms", "ql_qps"],
    &[WIRE_SELECTIVE, SERVE_UNDER_WRITES],
);
/// Per-row costs: every list scans whole segments, whatever comes out.
const SCAN: Prediction = (
    &["ql_p50_ms", "ql_qps"],
    &[WIRE_SELECTIVE, WIRE_ROLLUP, SERVE_UNDER_WRITES],
);
/// Per-cell costs: visible where results are large.
const BULK: Prediction = (&["ql_p50_ms", "ql_qps", "peak_rss_mb"], &[WIRE_ROLLUP]);
/// The write path competes with the reader for the two cores.
const WRITE: Prediction = (&["ql_p50_ms", "ql_qps"], &[SERVE_UNDER_WRITES]);
/// Build-path costs: the cold start, every fold, and every workload's set-up.
const BUILD: Prediction = (
    &["ql_p50_ms", "ql_qps", "setup_s"],
    &[COLD_BUILD, SERVE_UNDER_WRITES],
);
/// Only reached by the SPARQL cross-check of the cold start.
const SPARQL: Prediction = (&["ql_qps"], &[COLD_BUILD]);
/// Health counters and diagnostics: expected flat.
const FLAT: Prediction = (&[], &[]);

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    p: Prediction,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves: p.0,
        on: p.1,
    }
}

pub const PER_LAYER: [Layer; 73] = [
    // server
    layer("server.http.parse_us", "us", "lower", FIXED),
    layer("server.routes.open_module_us", "us", "lower", FIXED),
    layer("server.json.serialize_us", "us", "lower", BULK),
    layer("server.json.body_bytes", "bytes", "lower", BULK),
    layer("server.json.serialize_allocs", "count", "lower", BULK),
    layer("server.http.write_us", "us", "lower", BULK),
    layer("server.wire_overhead_us", "us", "lower", FIXED),
    layer("server.requests", "count", "higher", FLAT),
    layer("server.rejected.saturated", "count", "lower", FLAT),
    layer("server.timeouts", "count", "lower", FLAT),
    // the untraced single-connection client beside the replayed steps
    layer("client.ql_p50_ms", "ms", "lower", FLAT),
    layer("client.ql_p90_ms", "ms", "lower", FLAT),
    layer("client.ql_p99_ms", "ms", "lower", FLAT),
    layer("client.explore_p50_ms", "ms", "lower", FLAT),
    // ql
    layer("ql.parser.parse_us", "us", "lower", FIXED),
    layer("ql.pipeline.simplify_us", "us", "lower", FIXED),
    layer("ql.pipeline.ops_removed", "count", "higher", FLAT),
    layer("ql.translate.translate_us", "us", "lower", FIXED),
    layer("ql.translate.sparql_lines", "count", "lower", FLAT),
    layer("ql.executor.prepare_us", "us", "lower", FIXED),
    layer("ql.executor.execute_us", "us", "lower", SCAN),
    layer("ql.executor.execute_allocs", "count", "lower", SCAN),
    layer("ql.executor.execute_alloc_bytes", "bytes", "lower", SCAN),
    layer("ql.executor.cells", "count", "lower", BULK),
    layer("ql.executor.sparql_execute_ms", "ms", "lower", SPARQL),
    // cubestore: catalog
    layer("cubestore.catalog.pin_ns", "ns", "lower", FIXED),
    layer("cubestore.catalog.accrete_us", "us", "lower", WRITE),
    layer("cubestore.catalog.refresh_delta", "count", "higher", WRITE),
    layer("cubestore.catalog.refresh_rebuild", "count", "lower", WRITE),
    layer("cubestore.catalog.overlay_folds", "count", "higher", FLAT),
    layer(
        "cubestore.catalog.overlay_stale_serves",
        "count",
        "lower",
        FLAT,
    ),
    // cubestore: executor (the steps and counters `execute_profiled` reports)
    layer("cubestore.executor.plan_us", "us", "lower", FIXED),
    layer(
        "cubestore.executor.compile_filters_us",
        "us",
        "lower",
        FIXED,
    ),
    layer("cubestore.executor.scan_us", "us", "lower", SCAN),
    layer("cubestore.executor.aggregate_us", "us", "lower", BULK),
    layer("cubestore.executor.rows_scanned", "count", "lower", SCAN),
    layer("cubestore.executor.rows_aggregated", "count", "lower", SCAN),
    layer("cubestore.executor.segments_total", "count", "lower", FLAT),
    layer(
        "cubestore.executor.segments_pruned",
        "count",
        "higher",
        FIXED,
    ),
    layer(
        "cubestore.executor.dictionary_lookups",
        "count",
        "lower",
        BULK,
    ),
    layer("cubestore.executor.rollup_lookups", "count", "lower", SCAN),
    layer("cubestore.executor.rows_per_cell", "count", "lower", SCAN),
    layer("cubestore.executor.prune_ratio", "%", "higher", SCAN),
    // cubestore: build
    layer("cubestore.build.materialize_s", "s", "lower", BUILD),
    layer("cubestore.build.sparql_s", "s", "lower", BUILD),
    layer("cubestore.build.sparql_selects", "count", "lower", BUILD),
    layer("cubestore.build.self_s", "s", "lower", BUILD),
    layer("cubestore.build.allocs", "count", "lower", BUILD),
    layer("cubestore.build.alloc_bytes", "bytes", "lower", BUILD),
    // sparql
    layer("sparql.select_ms", "ms", "lower", SPARQL),
    layer("sparql.solutions", "count", "lower", FLAT),
    // rdf
    layer("rdf.store.bulk_load_s", "s", "lower", BUILD),
    layer("rdf.store.triples", "count", "lower", FLAT),
    layer("rdf.store.insert_batch_us", "us", "lower", WRITE),
    // enrichment
    layer("enrichment.redefine_ms", "ms", "lower", BUILD),
    layer("enrichment.discover_candidates_ms", "ms", "lower", BUILD),
    layer("enrichment.generate_triples_ms", "ms", "lower", BUILD),
    layer("enrichment.triples_generated", "count", "lower", FLAT),
    layer("enrichment.sparql_s", "s", "lower", BUILD),
    // explorer
    layer("explorer.summary_us", "us", "lower", FLAT),
    layer("explorer.members_us", "us", "lower", FLAT),
    // what a user of each workload sees beyond the shared end-to-end set
    layer("ql_p90_ms", "ms", "lower", FLAT),
    layer("write_visible_p50_ms", "ms", "lower", WRITE),
    layer("fold_s", "s", "lower", BUILD),
    layer("reader_ql_p50_ms", "ms", "lower", WRITE),
    layer("first_answer_s", "s", "lower", BUILD),
    layer("load_s", "s", "lower", BUILD),
    layer("enrich_s", "s", "lower", BUILD),
    layer("build_s", "s", "lower", BUILD),
    layer("sparql_mary_ms", "ms", "lower", SPARQL),
    // harness
    layer("loadgen.writer_lag_ms", "ms", "lower", FLAT),
    layer("trace.overhead_share", "%", "lower", FLAT),
    layer("trace.spans", "count", "lower", FLAT),
];

/// Prints every declared name: the workloads with their reasons, the
/// end-to-end metrics with their bounds, and for each per-layer metric the
/// end-to-end metrics it should move and the workloads it should move them on.
pub fn print() {
    for w in &WORKLOADS {
        println!("workload    {:<42} {}", w.name, w.why);
    }
    for m in &END_TO_END {
        println!(
            "end_to_end  {:<42} {:<6} {:<6} may worsen by {}",
            m.name, m.unit, m.better, m.bound
        );
    }
    for m in &PER_LAYER {
        let prediction = if m.moves.is_empty() {
            "flat everywhere".to_string()
        } else {
            format!("moves {} on {}", m.moves.join(", "), m.on.join(", "))
        };
        println!(
            "per_layer   {:<42} {:<6} {:<6} {prediction}",
            m.name, m.unit, m.better
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn declared(section: &Value) -> Vec<(String, String, String)> {
        section
            .as_array()
            .iter()
            .map(|entry| {
                (
                    entry.get("name").as_str().to_string(),
                    entry.get("unit").as_str().to_string(),
                    entry.get("better").as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_emits() {
        let file =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");

        assert_eq!(file.get("run_seconds").as_f64(), RUN_SECONDS as f64);
        let workloads: Vec<(String, String)> = file
            .get("workloads")
            .as_array()
            .iter()
            .map(|w| {
                (
                    w.get("name").as_str().to_string(),
                    w.get("why").as_str().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(declared(file.get("end_to_end")), ours);
        for (entry, metric) in file.get("end_to_end").as_array().iter().zip(&END_TO_END) {
            assert_eq!(entry.get("bound").as_f64(), metric.bound, "{}", metric.name);
            assert!(metric.bound <= 0.25);
        }

        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(declared(file.get("per_layer")), ours);
    }

    #[test]
    fn names_are_well_formed_unique_and_predictions_point_at_declared_names() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} declared twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for metric in &PER_LAYER {
            for moved in metric.moves {
                assert!(
                    END_TO_END.iter().any(|m| m.name == *moved),
                    "{}",
                    metric.name
                );
            }
            for workload in metric.on {
                assert!(
                    WORKLOADS.iter().any(|w| w.name == *workload),
                    "{}",
                    metric.name
                );
            }
            assert_eq!(
                metric.moves.is_empty(),
                metric.on.is_empty(),
                "{}",
                metric.name
            );
        }
    }
}
