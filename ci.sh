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
# (delta refreshes, broader-link cuts among them, and rebuild fallbacks
# forced by dangling structure triples) must keep the catalog-served
# columnar results cell-identical to fresh SPARQL evaluation, and the
# catalog-served explorer navigation identical to its SPARQL oracle.
cargo test --release -q -p qb2olap-suite --test integration_backends -- \
    interleaved_mutations_keep_catalog_and_sparql_in_lockstep
# The retired-shape parity gates, pinned by name: every observation shape a
# retired refusal kind (ObservationMutated, DroppedObservationMutated,
# IncompleteObservation, MalformedObservation) used to refuse, and the
# removal of a link to another dataset, and every hierarchy shape the eight
# retired hierarchy kinds (RollupLinkAdded, RollupLinkRemoved,
# MemberRemoved, MemberConflict, AttributeConflict, AttributeRemoved,
# UnknownMemberAttribute, DatasetLabelChanged) used to refuse, plus an
# attribute conflict whose new value sorts first, labels on observation
# nodes and a link cut and restored in one replay, must apply as a delta
# whose cube equals a from-scratch build (results, build counters, dropped
# set, level indexes, roll-up maps per bottom term, adjacency, dataset
# label) and serves exactly the observations SPARQL counts as complete.
cargo test --release -q -p cubestore --lib -- \
    refusal_suite::retired_observation_shapes_apply_as_deltas_equal_to_a_rebuild
cargo test --release -q -p cubestore --lib -- \
    refusal_suite::retired_hierarchy_shapes_apply_as_deltas_equal_to_a_rebuild

# The mutation-sequence differential fuzzer, pinned by name and seed: 200
# seeded steps of interleaved integer/float appends, new members,
# whole/partial removals, restores of a stripped measure (completing a
# dropped fragment), dimension edits (remove_matching, then insert) and
# hierarchy edits (continent links cut and restored, memberships removed
# and restored, a second attribute value, a relabeled dataset, labeled
# float members) against one store (two datasets) must refresh
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
# pretty-printed evaluation path and the planned-vs-textual leg: the
# shipped join planner (estimated-cardinality order, FILTERs where their
# variables are bound, rows restored to textual order) against the
# identity plan, same rows in the same order, for each query and for it
# without its ORDER BY, and so is each spotlight's member list
# (`SparqlGenerator::member_list`). Bit-identical results required, with
# store mutations interleaved every ten queries so the campaign also
# covers delta-accreted (ragged-link toggles re-read the hierarchy),
# tombstoned, compacted and rebuilt (dangling structure triples) catalog
# states.
# The coverage recorders fail the run if any grammar production was never
# generated, the harness self-test proves a seeded mismatch is caught,
# shrunk to a one-statement corpus file and replayed, and the leg's
# self-test proves a plan that skips the restoring sort is caught.
QB2OLAP_FUZZ_SEED=0xE155EED QB2OLAP_FUZZ_PROGRAMS=500 QB2OLAP_FUZZ_QUERIES=500 \
    cargo test --release -q -p qb2olap-suite --test integration_qlsmith

# The join planner's edge table, pinned by name: FILTERs over OPTIONAL,
# BIND and rebound variables, EXISTS, type errors, a repeated variable, an
# absent constant, VALUES with UNDEF, reordered runs inside OPTIONAL bodies
# and DISTINCT / SAMPLE / GROUP_CONCAT / LIMIT over reordered runs must
# return the identity plan's table row for row.
cargo test -q -p sparql --test eval_edges -- planned_runs_return_the_identity_plan_row_for_row
# The first-witness rule (ARCHITECTURE.md, "First witness per answer"),
# pinned by name: its eval_edges table, the driver/check split, the member
# list costing no more probes than the full join, and the generated member
# lists against the identity plan.
cargo test -q -p sparql --test eval_edges -- \
    a_distinct_select_ordered_on_its_projection_stops_at_the_first_witness
cargo test -q -p sparql --lib -- \
    plan::tests::a_split_drives_on_the_projected_keys_and_checks_the_leaves \
    plan::tests::only_an_order_over_exactly_the_projection_splits
cargo test -q -p qb --lib -- \
    introspect::tests::dimension_members_probes_no_more_than_the_full_join
cargo test -q -p qlsmith --lib -- \
    sparql_gen::tests::member_lists_agree_and_stop_at_the_first_witness
# Index ranges at slice speed, pinned by name: every range of all 27 bound
# shapes, walked with seeks below, inside and past it, on held and removed
# keys, against a BTreeSet model after every step of seeded mutation
# sequences (untouched, touched and freshly merged overlays); the member
# list seeking through an overlay of inserted and removed keys to the
# identity plan's table in exactly 17 keys; and the build's one-probe
# observation insert keeping its live count.
cargo test -q -p rdf --lib -- \
    graph::tests::matching_ids_agrees_with_a_full_scan_for_every_shape
cargo test -q -p sparql --test eval_edges -- \
    a_member_list_seeks_through_an_overlay_of_inserted_and_removed_keys
cargo test -q -p cubestore --lib -- \
    observations::tests::re_inserting_a_node_keeps_the_live_count
# ORDER BY's order is total, pinned by name: a column holding NaN, 1, 2, a
# string and an unbound value sorts to one table for every one of its 120
# input orders, ascending and descending (NaN after every other number).
cargo test -q -p sparql --test eval_edges -- \
    order_by_over_nan_numbers_strings_and_unbound_is_one_table_for_every_input_order

# The store's and the evaluator's machine-independent allocation bounds,
# pinned by name: over a 2 000- and an 8 000-observation cube a bulk load
# costs at most 64 more allocations at four times the triples (per distinct
# term and per index run, never per triple or per tree node), a background
# handle the same count at both sizes give or take 8 (the index runs are
# shared, not copied), the flat observation-star SELECT
# (`?obs qb:dataSet <ds> . ?obs ?p ?v`) a constant, at most 64 more at
# four times the rows (natively and through a wrapper that forwards only
# `query`), Mary's
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
# One materialization path, pinned by name: a build is the replay of an
# empty cube, so its observation index must end as one base map with an
# empty overlay, and a one-row append replay must share that base and every
# sealed zone-map segment with it (copy-on-write). Beside it: the decision
# table in delta.rs's module doc has exactly four rows, and one
# representative triple per row gets that row's decision from
# `DeltaContext::classify`.
cargo test --release -q -p cubestore --lib -- \
    delta::tests::a_build_leaves_one_base_that_an_append_replay_shares \
    delta::tests::the_module_doc_restates_the_decision_table
# The columnar side's two bounds, pinned by name: the same roll-up over 2
# and 10 sealed segments costs the same allocations give or take 2 per
# extra segment (the scan never allocates per row), and the /ql wire path
# (coded execution + coded_cube_to_json) for two roll-ups whose cell counts
# differ over fivefold differs in allocations by at most the difference in
# distinct members plus 16 (never per cell).
cargo test --release -q -p qb2olap_bench --test scan_allocations
# The segment kernel against its row-at-a-time oracle, pinned by name: 48
# seeded random cube and query shapes (dense, radix-sorted and u128 key
# spaces, each query also forced through every grouping and key width
# that fits; dices over one axis, same-axis trees and cross-axis trees;
# ragged and ambiguous roll-ups; unbound rows; partly and fully tombstoned
# segments; pruning off and on) must return the reference's cells and
# refusal messages. Beside it: a dice folded into an axis table never
# hides a later axis's refusal, an ambiguous entry no live row reaches
# leaves every dice residual with the reference's cells, the radix sort
# orders records stably in one pass and in several, and keys that differ
# only in their high bits group apart, in key order, on the sorted path,
# sorted at once and a segment at a time.
cargo test --release -q -p cubestore --lib -- \
    executor::tests::the_kernel_matches_the_reference_over_a_seeded_sweep \
    executor::tests::a_dice_never_hides_a_refusal_on_a_later_axis \
    executor::tests::an_unreached_ambiguous_entry_leaves_every_dice_residual \
    executor::tests::radix_sort_orders_keys_stably_in_one_pass_and_in_several \
    executor::tests::sorted_groups_order_keys_that_differ_only_in_high_bits

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

# The catalog under every schedule, pinned by name. A deterministic schedule
# explorer (crates/cubestore/src/sched.rs) runs each scenario's threads one
# at a time and switches only at the catalog's scheduling points (claim,
# publish, wait, the fold spawn) and at the test endpoint's queries and
# writes, through every schedule with at most two preemptions: a reader vs a
# writer vs a background fold (335 schedules), serve_settled vs a same-epoch
# compaction (87), serve_settled vs a failing fold (131) and a reader vs a
# panicking replay (27) — 580 schedules, 0.4–2 s in release on 2 shared vCPUs.
# After every run: a reader's epochs never go back, every pin served equals
# a scratch build at its epoch, serve_settled returned the slot's newest pin,
# every fold started landed or failed and was counted once, the claim is
# released, and no run ended with every live thread waiting. Then the three
# panic regression tests: a replay whose star read panics, a first build
# that panics and a fold whose build panics each leave the claim released,
# a settled serve returns an error within ten seconds, and the next serve
# recovers to a pin equal to a scratch build.
cargo test --release -q -p cubestore --lib -- \
    schedules::reader_vs_writer_vs_background_fold \
    schedules::serve_settled_vs_a_same_epoch_compaction \
    schedules::serve_settled_vs_a_failing_fold \
    schedules::reader_vs_a_panicking_replay \
    catalog::tests::a_replay_whose_star_read_panics_fails_the_slot_then_recovers \
    catalog::tests::a_first_build_that_panics_leaves_the_slot_empty_then_recovers \
    catalog::tests::a_fold_whose_build_panics_fails_the_slot_then_recovers

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
# agree on every workload query and that the planned direct Mary query joins
# no more intermediate rows than the alternative (a deterministic count,
# `rows_intermediate`); E2 that listing a dimension's members takes at most
# one index probe per member plus one; E6 asserts they agree on Mary's query, E9
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
grep -q 'E26' EXPERIMENTS.md
grep -q 'E27' EXPERIMENTS.md
grep -q 'E28' EXPERIMENTS.md
grep -q 'E29' EXPERIMENTS.md
grep -q 'E30' EXPERIMENTS.md
grep -q 'E31' EXPERIMENTS.md
grep -q 'E32' EXPERIMENTS.md
grep -q 'E33' EXPERIMENTS.md
grep -q 'E34' EXPERIMENTS.md
grep -q 'E35' EXPERIMENTS.md
grep -q 'E36' EXPERIMENTS.md
# The CHANGES budget (ROADMAP "CHANGES budget"): the newest `PR N:` entry
# holds the tentpole, the gate changes and the verdict in at most 160
# words; the details live in EXPERIMENTS.md and the commit messages.
# `FOUND:` lines are separate lines and do not count.
words=$(grep -m 1 '^PR [0-9]*:' CHANGES.md | wc -w)
test "$words" -le 160 || {
    echo "ci.sh: the newest CHANGES.md entry has $words words, over 160"
    exit 1
}

# Documentation builds for all crates with zero warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Formatting: every workspace member is as rustfmt writes it (qbbench/ is
# not a member and is not checked).
cargo fmt --all --check

# Lints, on every target (libs, bins, tests, examples).
cargo clippy --workspace --all-targets -- -D warnings

echo "ci.sh: all checks passed"
