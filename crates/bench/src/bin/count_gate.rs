//! `count_gate` — fails when a benchmark smoke run's count rows differ from
//! the smoke counts committed in the newest `BENCH_<pr>.json`.
//!
//! ```text
//! count_gate [<results.json>] [<dir holding BENCH_*.json>]
//! ```
//!
//! Defaults: `target/qbbench-smoke/results.json` (what
//! `qbbench all --smoke --out target/qbbench-smoke` writes) and the current
//! directory. Count rows repeat exactly from run to run, so any difference
//! is a change in what the program does: rows scanned, segments pruned,
//! cells, body bytes, SELECTs sent, solutions or triples. A PR that moves
//! one on purpose commits the new value in its own `BENCH_<pr>.json`.
//! Allocation counts are not gated. The file schema is in EXPERIMENTS.md
//! § "Trajectory files".

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

/// The gated rows, by their names in `results.json`'s `per_layer` objects.
const ROWS: [&str; 7] = [
    "cubestore.executor.rows_scanned",
    "cubestore.executor.segments_pruned",
    "ql.executor.cells",
    "server.json.body_bytes",
    "cubestore.build.sparql_selects",
    "sparql.solutions",
    "rdf.store.triples",
];

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `BENCH_<n>.json` in `dir` with the largest `n`.
fn newest_bench(dir: &Path) -> Result<PathBuf, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let pr: u64 = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((pr, path))
        })
        .max_by_key(|(pr, _)| *pr)
        .map(|(_, path)| path)
        .ok_or_else(|| format!("no BENCH_<pr>.json in {}", dir.display()))
}

/// Every gated row that differs, one line each.
fn differences(results: &Value, committed: &Value) -> Vec<String> {
    let Some(Value::Object(workloads)) = committed.get("counts").and_then(|c| c.get("smoke"))
    else {
        return vec!["the committed file has no counts.smoke object".to_string()];
    };
    let mut found = Vec::new();
    for (workload, expected) in workloads {
        for row in ROWS {
            let want = expected.get(row).and_then(Value::as_f64);
            let got = results
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("per_layer"))
                .and_then(|p| p.get(row))
                .and_then(|r| r.get("value"))
                .and_then(Value::as_f64);
            if want.is_none() || got != want {
                found.push(format!(
                    "{workload} {row}: committed {want:?}, smoke run {got:?}"
                ));
            }
        }
    }
    found
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let results = PathBuf::from(
        args.next()
            .unwrap_or_else(|| "target/qbbench-smoke/results.json".to_string()),
    );
    let dir = PathBuf::from(args.next().unwrap_or_else(|| ".".to_string()));
    let checked = newest_bench(&dir).and_then(|bench| {
        let found = differences(&read(&results)?, &read(&bench)?);
        Ok((bench, found))
    });
    match checked {
        Ok((bench, found)) if found.is_empty() => {
            println!(
                "count_gate: {} equals the smoke counts of {}",
                results.display(),
                bench.display()
            );
            ExitCode::SUCCESS
        }
        Ok((bench, found)) => {
            for line in found {
                eprintln!("count_gate: {line}");
            }
            eprintln!(
                "count_gate: {} differs from the smoke counts of {}",
                results.display(),
                bench.display()
            );
            ExitCode::FAILURE
        }
        Err(problem) => {
            eprintln!("count_gate: {problem}");
            ExitCode::FAILURE
        }
    }
}
