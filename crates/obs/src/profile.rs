//! Query execution profiles — `EXPLAIN ANALYZE` for the cube.
//!
//! An [`ExecutionProfile`] travels alongside a query result and records
//! three things:
//!
//! * the **logical plan** — one line per pipeline step (`SLICE`,
//!   `ROLLUP`, `DICE`, …) as the simplifier left it, so the reader can
//!   see what the engine was asked to do even when the physical engine
//!   fuses every step into a single scan;
//! * the **execution steps** — named phases with wall-clock durations
//!   and optional row counts (prepare, translate, scan, aggregate, …);
//! * the **counters** — named totals observed during execution (rows
//!   scanned, tombstones skipped, dictionary lookups, roll-up map
//!   lookups), mirroring the registry metric names where one exists.
//!
//! [`ExecutionProfile::render`] turns all of that into a stable,
//! human-readable text block.

use std::collections::BTreeMap;
use std::time::Duration;

/// One named execution phase inside a profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileStep {
    /// Phase name, e.g. `"scan"` or `"translate-sparql"`.
    pub name: String,
    /// Wall-clock time spent in the phase.
    pub duration: Duration,
    /// Rows produced or touched by the phase, when meaningful.
    pub rows: Option<u64>,
    /// Free-form annotation (backend variant, segments pruned, …).
    pub detail: String,
}

/// The full cost breakdown of one query execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionProfile {
    /// Which engine ran the query (`"columnar"`, `"sparql:direct"`, …).
    pub backend: String,
    /// Logical plan, one line per pipeline step.
    pub plan: Vec<String>,
    /// Measured execution phases, in execution order.
    pub steps: Vec<ProfileStep>,
    /// Named totals observed during execution.
    pub counters: BTreeMap<String, u64>,
    /// End-to-end wall-clock time.
    pub total: Duration,
}

impl ExecutionProfile {
    /// An empty profile for the given backend.
    pub fn new(backend: impl Into<String>) -> Self {
        Self {
            backend: backend.into(),
            ..Self::default()
        }
    }

    /// Appends a plan line.
    pub fn push_plan(&mut self, line: impl Into<String>) {
        self.plan.push(line.into());
    }

    /// Appends a measured phase.
    pub fn push_step(
        &mut self,
        name: impl Into<String>,
        duration: Duration,
        rows: Option<u64>,
        detail: impl Into<String>,
    ) {
        self.steps.push(ProfileStep {
            name: name.into(),
            duration,
            rows,
            detail: detail.into(),
        });
    }

    /// Adds to a named counter (creating it at zero).
    pub fn add_counter(&mut self, name: impl Into<String>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// A counter's value, zero if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The names of all measured phases, in order.
    pub fn step_names(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.name.as_str()).collect()
    }

    /// Whether a phase with this name was measured.
    pub fn has_step(&self, name: &str) -> bool {
        self.steps.iter().any(|s| s.name == name)
    }

    /// Sum of the measured phase durations (may be below [`Self::total`]
    /// when unprofiled work happened between phases).
    pub fn steps_total(&self) -> Duration {
        self.steps.iter().map(|s| s.duration).sum()
    }

    /// Renders the profile as an `EXPLAIN ANALYZE`-style text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN ANALYZE (backend={}, total={:.3} ms)\n",
            self.backend,
            self.total.as_secs_f64() * 1e3
        ));
        if !self.plan.is_empty() {
            out.push_str("plan:\n");
            for line in &self.plan {
                out.push_str(&format!("  {line}\n"));
            }
        }
        if !self.steps.is_empty() {
            out.push_str("execution:\n");
            for step in &self.steps {
                out.push_str(&format!(
                    "  {:<20} {:>10.3} ms",
                    step.name,
                    step.duration.as_secs_f64() * 1e3
                ));
                if let Some(rows) = step.rows {
                    out.push_str(&format!("  rows={rows}"));
                }
                if !step.detail.is_empty() {
                    out.push_str(&format!("  ({})", step.detail));
                }
                out.push('\n');
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name} = {value}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_accumulates_plan_steps_and_counters() {
        let mut profile = ExecutionProfile::new("columnar");
        profile.push_plan("SLICE dim=geo member=pt");
        profile.push_plan("ROLLUP dim=time level=year");
        profile.push_step(
            "scan",
            Duration::from_millis(3),
            Some(1000),
            "segments_pruned=4",
        );
        profile.push_step("aggregate", Duration::from_millis(1), Some(12), "");
        profile.add_counter("rows_scanned", 600);
        profile.add_counter("rows_scanned", 400);
        profile.add_counter("tombstones_skipped", 7);
        profile.total = Duration::from_millis(5);

        assert_eq!(profile.counter("rows_scanned"), 1000);
        assert_eq!(profile.counter("absent"), 0);
        assert_eq!(profile.step_names(), vec!["scan", "aggregate"]);
        assert!(profile.has_step("scan"));
        assert!(!profile.has_step("shuffle"));
        assert_eq!(profile.steps_total(), Duration::from_millis(4));
    }

    #[test]
    fn render_is_stable_and_names_everything() {
        let mut profile = ExecutionProfile::new("sparql:direct");
        profile.push_plan("DICE measure>10");
        profile.push_step("parse", Duration::from_micros(250), None, "");
        profile.push_step(
            "evaluate",
            Duration::from_micros(750),
            Some(42),
            "solutions",
        );
        profile.add_counter("dictionary_lookups", 3);
        profile.total = Duration::from_millis(1);

        let text = profile.render();
        assert!(text.starts_with("EXPLAIN ANALYZE (backend=sparql:direct"));
        assert!(text.contains("DICE measure>10"));
        assert!(text.contains("parse"));
        assert!(text.contains("evaluate"));
        assert!(text.contains("rows=42"));
        assert!(text.contains("dictionary_lookups = 3"));
        assert_eq!(text, profile.render(), "rendering is deterministic");
    }

    #[test]
    fn empty_profile_renders_header_only() {
        let profile = ExecutionProfile::new("columnar");
        let text = profile.render();
        assert!(text.contains("backend=columnar"));
        assert!(!text.contains("plan:"));
        assert!(!text.contains("execution:"));
        assert!(!text.contains("counters:"));
    }
}
