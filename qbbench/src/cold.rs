//! `cold-build`: raw triples to the first answer, single thread, no HTTP and
//! no warm cube. Each iteration bulk-loads a fresh endpoint, runs the demo
//! enrichment, materializes the cube, answers Mary's query on the columnar
//! backend and cross-checks it against `SparqlVariant::Direct`.

use std::time::{Duration, Instant};

use qb2olap::datagen::{workload, GeneratedDataset};
use qb2olap::{ExecutionBackend, SparqlVariant};

use crate::stats::ms;
use crate::world::cold_start;

#[derive(Default)]
pub struct Report {
    /// Bulk load → Mary's columnar answer, per iteration.
    pub first_answer_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub enrich_s: Vec<f64>,
    pub build_s: Vec<f64>,
    /// Mary's query through the paper's native QL → SPARQL path.
    pub sparql_mary_ms: Vec<f64>,
    /// Whole iterations, cross-check included.
    pub iteration_s: Vec<f64>,
    pub failed: u64,
}

/// Iterates until `window` has passed: at least once, and an iteration that
/// started inside the window completes.
pub fn run(data: &GeneratedDataset, window: Duration) -> Report {
    let mary = workload::mary_query();
    let mut report = Report::default();
    let started = Instant::now();
    loop {
        let iteration = Instant::now();
        let cold = cold_start(data);
        let querying = cold.tool.querying(&cold.dataset).expect("enriched cube");
        let prepared = querying.prepare(&mary).expect("Mary's query prepares");
        let columnar = querying
            .execute(&prepared, ExecutionBackend::Columnar)
            .expect("columnar answer");
        report
            .first_answer_s
            .push(iteration.elapsed().as_secs_f64());
        report.load_s.push(cold.load.as_secs_f64());
        report.enrich_s.push(cold.enrich.as_secs_f64());
        report.build_s.push(cold.build.as_secs_f64());

        let sparql_started = Instant::now();
        let direct = querying
            .execute(&prepared, SparqlVariant::Direct)
            .expect("SPARQL answer");
        report.sparql_mary_ms.push(ms(sparql_started.elapsed()));
        if columnar.cells != direct.cells || columnar.cells.is_empty() {
            report.failed += 1;
        }
        report.iteration_s.push(iteration.elapsed().as_secs_f64());
        if started.elapsed() >= window {
            return report;
        }
    }
}
