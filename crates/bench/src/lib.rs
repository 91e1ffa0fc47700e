//! Shared helpers for the paper's experiment-reproduction harness (`repro`,
//! E1–E10 in `EXPERIMENTS.md`), the `loadgen` serving gate, the
//! allocation-bound tests, and the benchmark package's write workloads.

#![warn(missing_docs)]

pub mod alloc_counter;

use std::time::{Duration, Instant};

use qb2olap::demo::{self, DemoCube};
use serde::Serialize;

/// Builds the demo cube (generate → load → enrich) at a given scale.
pub fn demo_cube(observations: usize) -> DemoCube {
    demo::setup_demo_cube(&datagen::EurostatConfig::small(observations))
        .expect("demo setup succeeds")
}

/// Builds the demo cube with a custom generator configuration.
pub fn demo_cube_with(config: &datagen::EurostatConfig) -> DemoCube {
    demo::setup_demo_cube(config).expect("demo setup succeeds")
}

/// Times a closure once, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// Generates complete, delta-appliable observations over the demo cube's
/// existing member pools — the mutation shape qbbench's
/// `serve-under-writes` writer and its traced write probe append to a live
/// endpoint. One factory per workload keeps node IRIs unique.
pub struct ObservationFactory {
    dataset: rdf::Iri,
    /// (bottom level, its members) per demo dimension, read once.
    pools: Vec<(rdf::Iri, Vec<rdf::Term>)>,
    prefix: String,
    serial: usize,
}

impl ObservationFactory {
    /// Reads the member pools of the demo cube's six bottom levels from
    /// the endpoint. `prefix` namespaces the generated observation IRIs
    /// (`http://example.org/<prefix>/obs<N>`).
    pub fn new(endpoint: &qb2olap::LocalEndpoint, dataset: &rdf::Iri, prefix: &str) -> Self {
        use rdf::vocab::{eurostat_property, sdmx_dimension};
        let bottom_levels = [
            eurostat_property::citizen(),
            eurostat_property::geo(),
            sdmx_dimension::ref_period(),
            eurostat_property::age(),
            eurostat_property::sex(),
            eurostat_property::asyl_app(),
        ];
        let pools = bottom_levels
            .into_iter()
            .map(|level| {
                let members = qb2olap::qb4olap::members_of_level(endpoint, &level)
                    .expect("demo level has members");
                (level, members)
            })
            .collect();
        ObservationFactory {
            dataset: dataset.clone(),
            pools,
            prefix: prefix.to_string(),
            serial: 0,
        }
    }

    /// The triples of `count` fresh observations: typed, dataset-linked,
    /// one member per dimension drawn round-robin from the pools, one
    /// integer measure value — exactly what the columnar delta path
    /// accepts as a pure append.
    pub fn batch(&mut self, count: usize) -> Vec<rdf::Triple> {
        use rdf::vocab::{qb, rdf as rdfv, sdmx_measure};
        use rdf::{Term, Triple};
        let mut batch = Vec::with_capacity(count * 9);
        for _ in 0..count {
            let node = Term::iri(format!("http://example.org/{}/obs{}", self.prefix, self.serial));
            batch.push(Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())));
            batch.push(Triple::new(node.clone(), qb::data_set(), Term::Iri(self.dataset.clone())));
            for (offset, (level, members)) in self.pools.iter().enumerate() {
                let member = members[(self.serial + offset) % members.len()].clone();
                batch.push(Triple::new(node.clone(), level.clone(), member));
            }
            batch.push(Triple::new(
                node,
                sdmx_measure::obs_value(),
                rdf::Literal::integer((self.serial % 500) as i64 + 1),
            ));
            self.serial += 1;
        }
        batch
    }
}

/// One measured row of an experiment, recorded by the `repro` binary.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Experiment identifier (e.g. `"E2"`).
    pub experiment: String,
    /// The independent variable (e.g. `"observations=10000"`).
    pub parameters: String,
    /// The measured quantity (e.g. `"enrichment_total_ms"`).
    pub metric: String,
    /// The measured value.
    pub value: f64,
}

impl Measurement {
    /// Creates a measurement row.
    pub fn new(
        experiment: &str,
        parameters: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
    ) -> Self {
        Measurement {
            experiment: experiment.to_string(),
            parameters: parameters.into(),
            metric: metric.into(),
            value,
        }
    }
}

/// Renders measurements as an aligned text table.
pub fn render_measurements(rows: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<34} {:<34} {:>14}\n",
        "exp", "parameters", "metric", "value"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<6} {:<34} {:<34} {:>14.3}\n",
            row.experiment, row.parameters, row.metric, row.value
        ));
    }
    out
}

/// Serialises measurements as JSON (one array), for machine-readable records.
pub fn measurements_to_json(rows: &[Measurement]) -> String {
    serde_json::to_string_pretty(rows).expect("measurements serialise")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_rendering() {
        let rows = vec![
            Measurement::new("E2", "observations=1000", "enrichment_total_ms", 12.5),
            Measurement::new("E3", "variant=direct", "execution_ms", 3.25),
        ];
        let table = render_measurements(&rows);
        assert!(table.contains("E2"));
        assert!(table.contains("enrichment_total_ms"));
        let json = measurements_to_json(&rows);
        assert!(json.contains("\"experiment\": \"E3\""));
    }

    #[test]
    fn timed_reports_duration() {
        let (value, duration) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(duration >= Duration::ZERO);
    }

    #[test]
    fn demo_cube_helper_builds_a_queryable_cube() {
        let cube = demo_cube(120);
        assert_eq!(cube.generated.observation_count, 120);
        let tool = qb2olap::Qb2Olap::new(cube.endpoint.clone());
        assert!(tool.querying(&cube.dataset).is_ok());
    }
}
