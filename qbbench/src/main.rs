//! `qbbench` — the repository's benchmark.
//!
//! ```text
//! qbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! qbbench all [--seed n] [--runs n] [--out dir] [--smoke]            every workload, then results.json
//! qbbench compare <a/results.json> <b/results.json>                  verdict per workload × metric
//! qbbench names                                                      the declared names and predictions
//! ```
//!
//! A run builds its inputs from `--seed`, measures for `--seconds`, checks
//! every output, and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the separate traced run with
//! `--trace 1`. Everything is measured from outside the program: the harness
//! times calls into each crate's public functions and reads the registries
//! and profiles the program already fills. See README.md beside this file.

mod alloc;
mod cold;
mod json;
mod names;
mod report;
mod stats;
mod timed_endpoint;
mod trace;
mod wire;
mod world;
mod writes;

use std::time::{Duration, Instant};

use json::Value;
use stats::{median, peak_rss_mb};
use world::{Inputs, World};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Half of the paper's demo subset (EXPERIMENTS.md §E7 uses 80 000): ten
/// sealed 4096-row segments, and small enough that three set-ups, five folds
/// and five cold starts fit the run-time cap of a benchmark run.
const OBSERVATIONS: usize = 40_000;

/// `setup_s` is the median of this many set-ups.
const SETUPS: usize = 3;

/// Client connections of the `wire-*` workloads: the box has two cores and
/// the generator shares them with the server.
const CONNECTIONS: usize = 2;

/// A metric by its declared name: the value and the samples behind it.
type Metric = (&'static str, f64, usize);

struct Outcome {
    metrics: Vec<Metric>,
    fingerprint: Value,
    attempted: u64,
    failed: u64,
}

fn end_to_end(workload: &str, inputs: Inputs, window: Duration) -> Outcome {
    let cold = workload == names::COLD_BUILD;
    let (mut setups, latency_ms, per_second, samples, fingerprint, attempted, failed, peak);
    if cold {
        // This workload's set-up is the dataset alone; everything after it
        // is what the workload measures.
        let started = Instant::now();
        let data = inputs.generate();
        setups = vec![started.elapsed().as_secs_f64()];
        let report = cold::run(&data, window);
        peak = peak_rss_mb();
        fingerprint = Value::obj(vec![
            ("seed", Value::Num(inputs.seed as f64)),
            ("observations", Value::Num(data.observation_count as f64)),
            ("generated_triples", Value::Num(data.triples.len() as f64)),
        ]);
        samples = report.iteration_s.len();
        (attempted, failed) = (samples as u64, report.failed);
        // Whole iterations per second of iterating, not per window: the
        // count in a fixed window moves in steps of a sixth.
        per_second = samples as f64 / report.iteration_s.iter().sum::<f64>();
        latency_ms = median(&report.first_answer_s) * 1e3;
    } else {
        let world = World::build(inputs);
        setups = vec![world.setup.as_secs_f64()];
        let seed = inputs.seed;
        let mut phases = Vec::new();
        // The reader's report, and what else the workload attempted.
        let (report, also_attempted, also_failed) = match workload {
            names::WIRE_SELECTIVE => (
                wire::run(&world, &world.selective, CONNECTIONS, true, seed, window),
                0,
                0,
            ),
            names::WIRE_ROLLUP => (
                wire::run(&world, &world.large, CONNECTIONS, false, seed, window),
                0,
                0,
            ),
            names::SERVE_UNDER_WRITES => {
                phases.push(window.as_secs_f64() * writes::APPEND_SHARE);
                let report = writes::run(&world, seed, window);
                let (checked, mismatched) = writes::settled_check(&world);
                (
                    report.reader,
                    report.attempted + checked,
                    report.failed + mismatched,
                )
            }
            other => unreachable!("{other} was checked against the declared workloads"),
        };
        peak = peak_rss_mb();
        attempted = report.attempted + also_attempted;
        failed = report.failed + also_failed;
        samples = report.ql.len();
        per_second = report.ql_per_second();
        latency_ms = report.typical_latency_ms(&phases);
        fingerprint = world.fingerprint.clone();
    }
    // The remaining set-ups run after the peak was read: what they leave
    // behind in the allocator differs from run to run and is not the
    // workload's memory.
    setups.extend((1..SETUPS).map(|_| {
        if cold {
            let started = Instant::now();
            drop(inputs.generate());
            started.elapsed().as_secs_f64()
        } else {
            World::build(inputs).setup.as_secs_f64()
        }
    }));
    Outcome {
        metrics: vec![
            ("setup_s", median(&setups), setups.len()),
            ("ql_p50_ms", latency_ms, samples),
            ("ql_qps", per_second, samples),
            ("peak_rss_mb", peak, 1),
        ],
        fingerprint,
        attempted,
        failed,
    }
}

fn unit_of(metric: &str) -> &'static str {
    names::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(names::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or_else(
            || panic!("{metric} is not a declared metric"),
            |(_, unit)| unit,
        )
}

struct Args {
    workload: String,
    inputs: Inputs,
    window: Duration,
    trace: bool,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: qbbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--observations n] [--out dir]\n\
         \x20      qbbench all [--seed n] [--runs n] [--out dir] [--smoke]\n\
         \x20      qbbench compare <a/results.json> <b/results.json>\n\
         \x20      qbbench names",
        names::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_run(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: String::new(),
        inputs: Inputs {
            seed: 11,
            observations: OBSERVATIONS,
        },
        window: Duration::from_secs(names::RUN_SECONDS),
        trace: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        let number = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.inputs.seed = number(),
            "--seconds" => parsed.window = Duration::from_secs(number()),
            "--trace" => parsed.trace = number() != 0,
            "--observations" => parsed.inputs.observations = number() as usize,
            "--out" => parsed.out = Some(value.clone()),
            _ => usage(),
        }
    }
    if !names::WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        usage();
    }
    parsed
}

fn run(args: &Args) {
    let (metrics, fingerprint, attempted, failed);
    if args.trace {
        let output = trace::run(&args.workload, args.inputs, args.window);
        if let Some(dir) = &args.out {
            std::fs::create_dir_all(dir).expect("create --out directory");
            let path = format!("{dir}/trace-{}.json", args.workload);
            std::fs::write(&path, output.spans.to_string()).expect("write the trace");
            eprintln!("qbbench: spans written to {path}");
        }
        (metrics, fingerprint, attempted, failed) =
            (output.metrics, Value::Null, output.attempted, output.failed);
    } else {
        let outcome = end_to_end(&args.workload, args.inputs, args.window);
        (metrics, fingerprint, attempted, failed) = (
            outcome.metrics,
            outcome.fingerprint,
            outcome.attempted,
            outcome.failed,
        );
    }

    // Declared order, and nothing missing or extra: the result line is the
    // contract `BENCHMARK.json` describes.
    let declared: Vec<&str> = if args.trace {
        names::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        names::END_TO_END.iter().map(|m| m.name).collect()
    };
    let position = |name: &str| {
        declared
            .iter()
            .position(|d| *d == name)
            .unwrap_or_else(|| panic!("{name} is not declared"))
    };
    let mut metrics = metrics;
    metrics.sort_by_key(|(name, _, _)| position(name));
    assert!(
        metrics
            .iter()
            .map(|(name, _, _)| *name)
            .eq(declared.iter().copied()),
        "the run must emit every declared metric once"
    );

    for (name, value, samples) in &metrics {
        println!(
            "{:<20} {name:<42} {value:>16.4} {:<6} n={samples}",
            args.workload,
            unit_of(name)
        );
    }
    let samples = metrics
        .iter()
        .map(|(name, _, n)| (*name, Value::Num(*n as f64)))
        .collect();
    println!(
        "{}",
        Value::obj(vec![
            ("fingerprint", fingerprint),
            ("samples", Value::obj(samples))
        ])
    );
    let metrics = metrics
        .iter()
        .map(|(name, value, _)| {
            (
                *name,
                Value::obj(vec![
                    ("value", Value::Num(*value)),
                    ("unit", Value::str(unit_of(name))),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("all") => report::all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some("names") => names::print(),
        Some(_) => run(&parse_run(&args)),
        None => usage(),
    }
}
