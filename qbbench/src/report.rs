//! `qbbench all` and `qbbench compare`: every workload in its own fresh
//! process, collected into `results.json`, and the verdict between two such
//! files.

use std::process::Command;

use crate::json::{self, Value};
use crate::names::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::median;

/// `(q3 − q1) / median` with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives; `None` below two values.
fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: f64| {
        let position = (k * (sorted.len() as f64 + 1.0) / 4.0).clamp(1.0, sorted.len() as f64);
        let below = position.floor() as usize;
        let above = (below + 1).min(sorted.len());
        sorted[below - 1] + (sorted[above - 1] - sorted[below - 1]) * (position - below as f64)
    };
    Some((quartile(3.0) - quartile(1.0)) / median(&sorted))
}

/// One run in a child process; returns its detail line and result line.
fn child(workload: &str, seed: u64, trace: bool, extra: &[String]) -> (Value, Value) {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run a workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().and_then(|line| json::parse(line).ok());
    let detail = lines.pop().and_then(|line| json::parse(line).ok());
    for line in lines {
        println!("{line}");
    }
    match (output.status.success(), detail, result) {
        (true, Some(detail), Some(result)) => (detail, result),
        _ => {
            eprintln!("qbbench: the {workload} run (seed {seed}, trace {trace}) printed no result");
            std::process::exit(1);
        }
    }
}

pub fn all(args: &[String]) {
    let (mut seed, mut runs, mut out, mut smoke) = (11u64, 1u64, "qbbench-out".to_string(), false);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        match (flag.as_str(), args.next()) {
            ("--seed", Some(value)) => seed = value.parse().unwrap_or_else(|_| crate::usage()),
            ("--runs", Some(value)) => runs = value.parse().unwrap_or_else(|_| crate::usage()),
            ("--out", Some(value)) => out = value.clone(),
            _ => crate::usage(),
        }
    }
    // The smoke run checks the shape of the output, not its numbers.
    let seconds = if smoke { 1 } else { RUN_SECONDS };
    let mut extra = vec!["--seconds".to_string(), seconds.to_string()];
    if smoke {
        extra.extend(["--observations".to_string(), "4000".to_string()]);
    }
    let traced: Vec<String> = extra
        .iter()
        .cloned()
        .chain(["--out".to_string(), out.clone()])
        .collect();

    let mut problems = Vec::new();
    let mut fingerprint = Value::Null;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed, mut samples) = (0.0, 0.0, Value::Null);
        for run in 0..runs {
            let (detail, result) = child(workload.name, seed + run, false, &extra);
            if run == 0 {
                samples = detail.get("samples").clone();
                if matches!(fingerprint, Value::Null) {
                    fingerprint = detail.get("fingerprint").clone();
                }
            }
            attempted += result.get("attempted").as_f64();
            failed += result.get("failed").as_f64();
            for (values, metric) in per_metric.iter_mut().zip(&END_TO_END) {
                values.push(result.get("metrics").get(metric.name).get("value").as_f64());
            }
        }
        let end_to_end = END_TO_END
            .iter()
            .zip(&per_metric)
            .map(|(metric, values)| {
                if values.iter().any(|v| !v.is_finite() || *v == 0.0) {
                    problems.push(format!(
                        "{} {} is missing or zero",
                        workload.name, metric.name
                    ));
                }
                let mut entry = vec![
                    ("value", Value::Num(median(values))),
                    ("unit", Value::str(metric.unit)),
                    ("samples", samples.get(metric.name).clone()),
                    (
                        "runs",
                        Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                    ),
                ];
                if let Some(spread) = quartile_spread(values) {
                    entry.push(("spread", Value::Num(spread)));
                }
                (metric.name, Value::obj(entry))
            })
            .collect();

        let (detail, result) = child(workload.name, seed, true, &traced);
        attempted += result.get("attempted").as_f64();
        failed += result.get("failed").as_f64();
        let per_layer = PER_LAYER
            .iter()
            .map(|metric| {
                let value = result.get("metrics").get(metric.name).get("value").as_f64();
                if !value.is_finite() {
                    problems.push(format!("{} {} is missing", workload.name, metric.name));
                }
                let entry = vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::str(metric.unit)),
                    ("samples", detail.get("samples").get(metric.name).clone()),
                ];
                (metric.name, Value::obj(entry))
            })
            .collect();
        if failed > 0.0 {
            problems.push(format!(
                "{}: {failed} of {attempted} operations failed",
                workload.name
            ));
        }
        workloads.push((
            workload.name,
            Value::obj(vec![
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("end_to_end", Value::obj(end_to_end)),
                ("per_layer", Value::obj(per_layer)),
            ]),
        ));
    }

    let results = Value::obj(vec![
        ("fingerprint", fingerprint),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::create_dir_all(&out).expect("create --out directory");
    let path = format!("{out}/results.json");
    std::fs::write(&path, results.to_string()).expect("write results.json");
    println!("qbbench: results written to {path}");
    if !problems.is_empty() {
        for problem in problems {
            eprintln!("qbbench: {problem}");
        }
        std::process::exit(1);
    }
}

pub fn compare(args: &[String]) {
    let [a, b] = args else { crate::usage() };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let (a, b) = (read(a), read(b));
    for key in [
        "observations",
        "triples",
        "query_list_hash",
        "expected_body_hash",
        "nproc",
    ] {
        let (left, right) = (a.get("fingerprint").get(key), b.get("fingerprint").get(key));
        if left != right {
            println!("inputs differ: {key} is {left} in a and {right} in b");
        }
    }
    println!(
        "{:<20} {:<12} {:>12} {:>12} {:>16} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)", "bound"
    );
    let mut worse = false;
    for workload in WORKLOADS {
        let side = |file: &Value, metric: &str| {
            file.get("workloads")
                .get(workload.name)
                .get("end_to_end")
                .get(metric)
                .clone()
        };
        for metric in &END_TO_END {
            let (left, right) = (side(&a, metric.name), side(&b, metric.name));
            let (base, value) = (left.get("value").as_f64(), right.get("value").as_f64());
            let ratio = value / base;
            let regressed = match metric.better {
                "lower" => ratio > 1.0 + metric.bound,
                _ => ratio < 1.0 - metric.bound,
            };
            // A spread wider than the bound cannot resolve a change of the
            // bound's size either way.
            let noisy = [&left, &right]
                .iter()
                .any(|side| side.get("spread").as_f64() > metric.bound);
            let verdict = if !ratio.is_finite() || regressed {
                worse = true;
                "worse"
            } else if noisy {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<20} {:<12} {base:>12.4} {value:>12.4} {ratio:>16.4} {:>6}  {verdict}",
                workload.name, metric.name, metric.bound
            );
        }
        let failed = b.get("workloads").get(workload.name).get("failed").as_f64();
        if failed != 0.0 {
            println!("{:<20} failed operations in b: {failed}", workload.name);
            worse = true;
        }
    }
    if worse {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
        let values = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartile_spread(&values), Some((31.0 - 3.5) / 13.5));
        assert_eq!(quartile_spread(&[3.0]), None);
    }
}
