#!/usr/bin/env sh
# The merge gate: tier-1 verify (build + tests) plus docs and lints.
# Run from the repo root. Fails fast; every step must be warning-free.
set -eux

# Tier-1 (ROADMAP.md): the workspace builds and the full test suite passes.
# --workspace so the gate covers every member even if the default-members
# list in Cargo.toml drifts out of sync.
cargo build --release --workspace
cargo test -q --workspace

# The backend-parity gate, run explicitly so a SPARQL-vs-columnar
# regression can never slip through a test quarantine: every bench and
# seeded generated workload query must return identical cubes from both
# execution backends.
cargo test --release -q -p qb2olap-suite --test integration_backends

# The mutation-parity gate, pinned by name: interleaved store mutations
# (delta refreshes and rebuild fallbacks) must keep the catalog-served
# columnar results cell-identical to fresh SPARQL evaluation, and the
# catalog-served explorer navigation identical to its SPARQL oracle.
cargo test --release -q -p qb2olap-suite --test integration_backends -- \
    interleaved_mutations_keep_catalog_and_sparql_in_lockstep

# The mutation-sequence differential fuzzer, pinned by name and seed: 200
# seeded steps of interleaved integer/float appends, new members, and
# whole/partial removals against one store (two datasets) must refresh
# exclusively via the delta path (no rebuild, no compaction) while the
# catalog-served columnar results stay bit-identical to fresh SPARQL
# evaluation after every step (float SUM/AVG included, and periodically
# the float cube's scan against a from-scratch build).
QB2OLAP_FUZZ_STEPS=200 cargo test --release -q -p qb2olap-suite --test integration_backends -- \
    mutation_sequence_fuzzer_keeps_catalog_and_sparql_in_lockstep

# The qlsmith gate, pinned by name and seed: 500 grammar-covering QL
# programs (every pipeline-step variant, every aggregate function, dice
# trees over strings/numbers/IRIs) run through the five oracle legs of
# `qlsmith::diff::LEGS`, all on one settled pin of the store — `columnar`
# (the served snapshot, default options), `columnar-unpruned` (zone-map
# pruning off), `columnar-scratch` (a cube built from scratch at
# the pin's epoch), `sparql-direct` and `sparql-alternative` — and 500
# grammar-covering SPARQL SELECTs run through the parsed and the
# pretty-printed evaluation path. Bit-identical results required, with
# store mutations interleaved every ten queries so the campaign also
# covers delta-accreted, tombstoned, compacted and rebuilt catalog states.
# The coverage recorders fail the run if any grammar production was never
# generated, and the harness self-test proves a seeded mismatch is caught,
# shrunk to a one-statement corpus file and replayed.
QB2OLAP_FUZZ_SEED=0xE155EED QB2OLAP_FUZZ_PROGRAMS=500 QB2OLAP_FUZZ_QUERIES=500 \
    cargo test --release -q -p qb2olap-suite --test integration_qlsmith

# The store's and the evaluator's machine-independent allocation bounds,
# pinned by name: over a 2 000- and an 8 000-observation cube a bulk load
# costs at most 64 more allocations at four times the triples (per distinct
# term and per index run, never per triple or per tree node), a background
# handle the same count at both sizes give or take 8 (the index runs are
# shared, not copied), the flat observation-star SELECT
# (`?obs qb:dataSet <ds> . ?obs ?p ?v`) one allocation per decoded solution
# plus a constant (a constant alone when dictionary-encoded, natively and
# through a wrapper that forwards only `query`), Mary's
# translated SPARQL a constant plus a few per group, and a cube build grows
# with distinct members, not cells — no per-triple or per-intermediate-row
# allocation anywhere on the load → SPARQL → columns path.
cargo test --release -q -p qb2olap_bench --test sparql_allocations
# The demo cube interns its observations in Term order, so the build above
# never re-orders the pivot. The re-order is pinned here by name:
# observations stored in reverse Term order materialize the same rows
# (nodes, codes, measures, zone maps) as the same observations stored in
# Term order.
cargo test --release -q -p cubestore --lib -- \
    tests::observations_stored_out_of_term_order_materialize_the_same_rows
# The columnar side's two bounds, pinned by name: the same roll-up over 2
# and 10 sealed segments costs the same allocations give or take 2 per
# extra segment (the scan never allocates per row), and the /ql wire path
# (coded execution + coded_cube_to_json) for two roll-ups whose cell counts
# differ over fivefold differs in allocations by at most the difference in
# distinct members plus 16 (never per cell).
cargo test --release -q -p qb2olap_bench --test scan_allocations

# The observability gates, pinned by name: the explain-smoke test (an
# EXPLAIN ANALYZE profile must name every pipeline step with timings and
# row counts on both backends), the metrics-invariant test (a
# delta-only mutation run must report `catalog.refresh.delta > 0` and
# `catalog.refresh.rebuild == 0` through the metrics snapshot alone),
# and the pruning-visibility test (a selective dice's query profile must
# report `segments_pruned > 0` and a SEGMENTS plan line, a full
# roll-up's exactly zero).
cargo test --release -q -p qb2olap-suite --test integration_obs

# The zone-map pruning differential gate: a query battery covering every
# branch of the segment-pruning decision (full scans, clustered leaf /
# mid-level / unclustered dices, slices, roll-ups, HAVING) must return
# bit-identical cubes with pruning on and off, with monotone segment
# counters.
cargo test --release -q -p qb2olap-suite --test integration_pruning

# The overlay consistency gates: the concurrency stress test (N readers
# racing a mutating writer and the background fold threads, every pinned
# snapshot checked bit-identical against a scratch materialization at
# exactly its epoch) and the slow-fold regression test (a structural
# rebuild taking hundreds of milliseconds must never push concurrent
# snapshot serving past pin cost).
cargo test --release -q -p qb2olap-suite --test integration_overlay

# The regression corpus replays green, pinned by name so a corpus file
# that stops parsing or starts diverging fails the gate even if the
# campaign above is ever quarantined. One file,
# tests/corpus/seed-0004-two-dimension-attribute-dice.ql, is a dice
# comparing attributes of two dimensions, which the alternative SPARQL
# variant once dropped.
cargo test --release -q -p qb2olap-suite --test integration_qlsmith -- \
    committed_corpus_replays_green

# The paper's experiments (EXPERIMENTS.md E1–E10), their only harness:
# every figure and section the repo reproduces must regenerate end to end.
# E3 also runs E10 and asserts the direct and alternative SPARQL variants
# agree on every workload query; E6 asserts they agree on Mary's query, E9
# that the naive and the simplified program return the same cube. E7 runs
# at its fixed 80 000-observation paper scale.
for experiment in e1 e2 e3 e4 e5 e6 e8 e9; do
    cargo run --release -p qb2olap_bench --bin repro -- "$experiment" --observations 2000 > /dev/null
done
cargo run --release -p qb2olap_bench --bin repro -- e7 > /dev/null
# The SPARQL snapshot, pinned by name: both variants' text for the E3
# workload (which holds E6's Mary query and E9's naive program) must equal
# crates/ql/testdata/workload.sparql byte for byte, and for
# generated_queries(11, 64) the committed FNV-1a digest per query. It
# guards the one renderer that turns the cube plan into SPARQL.
cargo test --release -q -p ql --lib -- \
    translate::tests::generated_sparql_matches_the_committed_snapshot

# The HTTP serving gates. First the server test suite, pinned by name so
# the protocol-hardening and wire-fidelity coverage (400/404/405/408/413/
# 429, a handler panic answered as 500 and counted, keep-alive, graceful
# shutdown, wire bodies bit-identical to library results over the E7
# workload) cannot be quarantined away.
cargo test --release -q -p qb2olap-suite --test integration_server
# The coded /ql writer's byte-identity gate: over the E3/E6/E9 lists,
# qbbench's generated list and 500 qlsmith programs per cube (demo,
# decimal demo, fuzz cube with decimal and with double measures), the body
# written from the coded result equals the decoded cube's canonical body.
cargo test --release -q -p qb2olap-suite --test integration_coded_wire
# Flake check: the pool's saturation unit test rendezvouses on a channel
# (the handler signals when it holds the stream) instead of sleeping; fifty
# consecutive runs must all pass.
for _ in $(seq 1 50); do
    cargo test --release -q -p qb2olap_server --lib -- \
        pool::tests::rendezvous_queue_refuses_when_workers_are_busy
done
# Then E19: loadgen drives 32 keep-alive connections of /ql traffic twice
# — idle and under forced background rebuilds — checking every response
# body against the library-computed canonical JSON, and fails the run if
# the mid-rebuild p99 exceeds max(10x the idle p99, 25 ms) or any body
# diverges (the wire-level restatement of E18's non-blocking guarantee).
cargo run --release -p qb2olap_bench --bin loadgen

# The benchmark (BENCHMARK.json, qbbench/) stays runnable against the
# sources it measures. First its own tests: the name contract (every metric
# name in BENCHMARK.json declared in qbbench/src/names.rs and back) and the
# harness helpers. Then the smoke run: every workload and every traced run
# at 4 000 observations with 1 s windows, under 20 s; it fails on any wire
# body, backend-parity or invariant mismatch. The package has its own
# target directory (qbbench/target); nothing under qbbench/ is edited.
cargo test --release --offline --manifest-path qbbench/Cargo.toml
cargo run --release --offline --manifest-path qbbench/Cargo.toml -- \
    all --smoke --out target/qbbench-smoke
# The count gate: the smoke run's count rows (rows scanned, segments pruned,
# cells, body bytes, the build's SELECTs, solutions, triples) must equal the
# smoke counts committed in the newest BENCH_<pr>.json (schema in
# EXPERIMENTS.md, "Trajectory files"). Count rows repeat exactly, so a
# difference is a behaviour change the PR did not commit. Allocation counts
# are not gated.
cargo run --release -p qb2olap_bench --bin count_gate -- target/qbbench-smoke/results.json .
# qbbench/Cargo.lock is tracked, and cargo rewrites it whenever a crate
# qbbench builds (core, server, bench and their path dependencies) gains or
# loses a dependency. Files under qbbench/ must not change in a PR, so the
# builds above must have left it as committed. Skipped outside a git
# checkout.
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    git diff --exit-code -- qbbench/Cargo.lock
fi

# Documentation cross-references resolve: every local *.md file mentioned
# in the top-level docs exists, and the architecture map is linked from
# the README (so it cannot silently rot).
for doc in README.md ARCHITECTURE.md EXPERIMENTS.md; do
    for ref in $(grep -o '[A-Za-z0-9_./-]*\.md' "$doc" | sort -u); do
        test -f "$ref" || { echo "ci.sh: $doc references missing file $ref"; exit 1; }
    done
done
grep -q 'ARCHITECTURE.md' README.md
grep -q 'E13' EXPERIMENTS.md
grep -q 'E14' EXPERIMENTS.md
grep -q 'E15' EXPERIMENTS.md
grep -q 'E16' EXPERIMENTS.md
grep -q 'E17' EXPERIMENTS.md
grep -q 'E18' EXPERIMENTS.md
grep -q 'E19' EXPERIMENTS.md
grep -q 'E20' EXPERIMENTS.md
grep -q 'E21' EXPERIMENTS.md
grep -q 'E22' EXPERIMENTS.md
grep -q 'E23' EXPERIMENTS.md
grep -q 'E24' EXPERIMENTS.md
grep -q 'E25' EXPERIMENTS.md

# Documentation builds for all crates with zero warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Lints, on every target (libs, bins, tests, examples).
cargo clippy --workspace --all-targets -- -D warnings

echo "ci.sh: all checks passed"
