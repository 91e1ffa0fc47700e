//! Differential tests between the two execution backends: every workload
//! query — the named bench queries plus a seeded randomly generated
//! workload — must return *identical* result cubes (same axes, same
//! measures, same canonically-ordered cells) from the SPARQL translation
//! and from the columnar cube engine, including on ragged hierarchies
//! where members are missing an ancestor at the roll-up target level —
//! and, since the cube catalog is live, after *any* interleaving of store
//! mutations (incremental delta refreshes and rebuild fallbacks alike).

use qb2olap::{demo, Endpoint, ExecutionBackend, Qb2Olap, SparqlVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf::vocab::{qb, rdf as rdfv, rdfs, sdmx_dimension, sdmx_measure, skos};
use rdf::{Iri, Literal, Term, Triple};

fn demo_tool(observations: usize) -> (Qb2Olap, Iri) {
    let cube = demo::setup_demo_cube(&datagen::EurostatConfig::small(observations)).unwrap();
    (Qb2Olap::new(cube.endpoint.clone()), cube.dataset)
}

#[test]
fn bench_and_generated_workloads_agree_across_backends() {
    let (tool, dataset) = demo_tool(1_200);
    let querying = tool.querying(&dataset).unwrap();

    let mut workload: Vec<(String, String)> = datagen::workload::bench_queries()
        .into_iter()
        .map(|(name, text)| (name.to_string(), text))
        .collect();
    workload.extend(datagen::workload::generated_queries(42, 24));

    for (name, text) in &workload {
        let prepared = querying
            .prepare(text)
            .unwrap_or_else(|e| panic!("workload query '{name}' failed to prepare: {e}\n{text}"));
        let sparql_cube = querying
            .execute(&prepared, SparqlVariant::Direct)
            .unwrap_or_else(|e| panic!("SPARQL backend failed for '{name}': {e}"));
        let columnar_cube = querying
            .execute(&prepared, ExecutionBackend::Columnar)
            .unwrap_or_else(|e| panic!("columnar backend failed for '{name}': {e}"));
        assert_eq!(
            sparql_cube, columnar_cube,
            "backends disagree for workload query '{name}':\n{text}"
        );
    }
}

/// Surgically removes the `skos:broader` links of one member, making the
/// hierarchy ragged at that member, and returns how many links were cut.
fn cut_broader_links(tool: &Qb2Olap, member: &rdf::Term) -> usize {
    let store = tool.endpoint().store();
    let links = store.triples_matching(Some(member), Some(&skos::broader()), None);
    for triple in &links {
        assert!(store.remove(triple));
    }
    links.len()
}

/// The observation nodes of the dataset, in a deterministic order.
fn observation_nodes(tool: &Qb2Olap, dataset: &Iri) -> Vec<Term> {
    let nodes = tool
        .endpoint()
        .select(&format!(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             SELECT ?o WHERE {{ ?o a qb:Observation ; qb:dataSet <{}> }} ORDER BY ?o",
            dataset.as_str()
        ))
        .unwrap();
    (0..nodes.len())
        .filter_map(|i| nodes.get(i, "o").cloned())
        .collect()
}

/// Removes one observation *completely* as a single batched mutation (one
/// `StoreDelta`), the shape the catalog can absorb by tombstoning the row.
/// Returns how many triples went.
fn remove_observation(tool: &Qb2Olap, node: &Term) -> usize {
    let store = tool.endpoint().store();
    let triples = store.triples_matching(Some(node), None, None);
    assert!(!triples.is_empty(), "observation {node} has triples");
    store.remove_all(&triples)
}

#[test]
fn ragged_hierarchy_drops_members_identically_in_both_backends() {
    let (tool, dataset) = demo_tool(900);

    // Total over all observations, before making anything ragged.
    let sum_for = |filter: &str| -> f64 {
        tool.endpoint()
            .select(&format!(
                "PREFIX qb: <http://purl.org/linked-data/cube#>
                 PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
                 PREFIX property: <http://eurostat.linked-statistics.org/property#>
                 SELECT (SUM(?v) AS ?total) WHERE {{
                   ?o a qb:Observation ; sdmx-measure:obsValue ?v .
                   {filter}
                 }}"
            ))
            .unwrap()
            .get(0, "total")
            .and_then(|t| t.as_literal().and_then(|l| l.as_double()))
            .unwrap_or(0.0)
    };
    let full_total = sum_for("");
    let syria_total = sum_for(&format!(
        "?o property:citizen <{}> .",
        datagen::eurostat::citizen_member("SY")
            .as_iri()
            .unwrap()
            .as_str()
    ));
    assert!(
        syria_total > 0.0,
        "the 900-row sample has Syrian applicants"
    );

    // Make the citizenship hierarchy ragged at Syria (no continent), then
    // open a fresh querying module so both backends see the mutated store.
    assert!(cut_broader_links(&tool, &datagen::eurostat::citizen_member("SY")) > 0);
    let querying = tool.querying(&dataset).unwrap();

    let prepared = querying
        .prepare(&datagen::workload::rollup_citizenship_to_continent())
        .unwrap();
    let sparql_cube = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
    let columnar_cube = querying
        .execute(&prepared, ExecutionBackend::Columnar)
        .unwrap();
    assert_eq!(
        sparql_cube, columnar_cube,
        "backends disagree on the ragged citizenship roll-up"
    );
    // Both drop exactly the observations of the now-ragged member.
    assert!(
        (sparql_cube.first_measure_total() - (full_total - syria_total)).abs() < 1e-6,
        "expected the roll-up to lose exactly Syria's total"
    );

    // A query that keeps citizenship at the bottom level still sees Syria.
    let prepared = querying
        .prepare(&datagen::workload::totals_by_citizenship())
        .unwrap();
    let sparql_cube = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
    let columnar_cube = querying
        .execute(&prepared, ExecutionBackend::Columnar)
        .unwrap();
    assert_eq!(sparql_cube, columnar_cube);
    assert!((sparql_cube.first_measure_total() - full_total).abs() < 1e-6);
}

#[test]
fn ragged_middle_of_a_multi_level_rollup_is_pinned_in_both_backends() {
    let (tool, dataset) = demo_tool(700);

    // Cut the continent → citAll link of Africa: African citizens can then
    // reach `continent` but not `citAll`.
    assert!(cut_broader_links(&tool, &datagen::eurostat::continent_member("Africa")) > 0);
    let querying = tool.querying(&dataset).unwrap();

    let to_cit_all = "PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
QUERY
$C1 := ROLLUP (data:migr_asyappctzm, schema:citizenshipDim, schema:citAll);
";
    let prepared = querying.prepare(to_cit_all).unwrap();
    let sparql_cube = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
    let columnar_cube = querying
        .execute(&prepared, ExecutionBackend::Columnar)
        .unwrap();
    assert_eq!(
        sparql_cube, columnar_cube,
        "backends disagree when the middle of a two-step roll-up is ragged"
    );

    // Rolling up only to `continent` is unaffected by the missing top link.
    let prepared = querying
        .prepare(&datagen::workload::rollup_citizenship_to_continent())
        .unwrap();
    let direct = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
    let columnar = querying
        .execute(&prepared, ExecutionBackend::Columnar)
        .unwrap();
    assert_eq!(direct, columnar);
    assert!(direct.cells.iter().any(|c| c
        .coordinates
        .contains(&datagen::eurostat::continent_member("Africa"))));
}

/// The mutation-parity gate: interleaves seeded random store mutations —
/// pure observation appends, brand-new members with roll-up links and
/// labels, observation edits and broader-link cuts (the delta path),
/// dangling structure triples (the rebuild fallback) — with the bench
/// workload, asserting after every
/// round that the catalog-served columnar results stay cell-identical to a
/// fresh SPARQL evaluation and that the catalog-served explorer navigation
/// matches its SPARQL oracle. Stale or divergent cells anywhere fail here.
#[test]
fn interleaved_mutations_keep_catalog_and_sparql_in_lockstep() {
    let (tool, dataset) = demo_tool(800);
    let querying = tool.querying(&dataset).unwrap();
    querying.materialize().unwrap();
    let explorer = tool.explorer(&dataset).unwrap();

    let members_of =
        |level: &Iri| -> Vec<Term> { qb4olap::members_of_level(tool.endpoint(), level).unwrap() };
    let citizen_level = rdf::vocab::eurostat_property::citizen();
    let continent_level = rdf::vocab::demo_schema::continent();
    let pools: Vec<(Iri, Vec<Term>)> = [
        citizen_level.clone(),
        rdf::vocab::eurostat_property::geo(),
        sdmx_dimension::ref_period(),
        rdf::vocab::eurostat_property::age(),
        rdf::vocab::eurostat_property::sex(),
        rdf::vocab::eurostat_property::asyl_app(),
    ]
    .into_iter()
    .map(|level| {
        let members = members_of(&level);
        assert!(
            !members.is_empty(),
            "level <{}> has members",
            level.as_str()
        );
        (level, members)
    })
    .collect();
    let continents = members_of(&continent_level);

    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut next_obs = 0usize;
    let mut next_member = 0usize;

    // One complete observation over the given citizen member, the other
    // dimensions drawn from the existing member pools.
    let new_observation = |rng: &mut StdRng, citizen: Term, serial: usize| -> Vec<Triple> {
        let node = Term::iri(format!("http://example.org/mutation/obs{serial}"));
        let mut batch = vec![
            Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
            Triple::new(node.clone(), qb::data_set(), Term::Iri(dataset.clone())),
            Triple::new(node.clone(), citizen_level.clone(), citizen),
            Triple::new(
                node.clone(),
                sdmx_measure::obs_value(),
                Literal::integer(rng.gen_range(1..500)),
            ),
        ];
        for (level, members) in pools.iter().skip(1) {
            let member = members[rng.gen_range(0..members.len())].clone();
            batch.push(Triple::new(node.clone(), level.clone(), member));
        }
        batch
    };

    enum Mutation {
        AppendExisting,
        AppendNewMember,
        RemoveObservation,
        CutBroaderLink,
        EditObservation,
        EditDroppedObservation,
        DanglingStructure,
    }
    let rounds = [
        Mutation::AppendExisting,
        Mutation::AppendNewMember,
        Mutation::RemoveObservation,
        Mutation::AppendExisting,
        Mutation::CutBroaderLink,
        Mutation::DanglingStructure,
        Mutation::AppendExisting,
        Mutation::RemoveObservation,
        Mutation::EditObservation,
        Mutation::EditDroppedObservation,
        Mutation::CutBroaderLink,
        Mutation::DanglingStructure,
    ];

    for (round, mutation) in rounds.iter().enumerate() {
        match mutation {
            Mutation::AppendExisting => {
                // Pure observation append: must refresh via the delta path.
                let mut batch = Vec::new();
                for _ in 0..3 {
                    let citizens = &pools[0].1;
                    let citizen = citizens[rng.gen_range(0..citizens.len())].clone();
                    batch.extend(new_observation(&mut rng, citizen, next_obs));
                    next_obs += 1;
                }
                tool.endpoint().insert_triples(&batch).unwrap();
            }
            Mutation::AppendNewMember => {
                // A brand-new citizenship member, declared, linked into the
                // hierarchy, labeled, and referenced by a new observation —
                // all in one batch (delta-appliable).
                let member = Term::iri(format!("http://example.org/mutation/citizen{next_member}"));
                let continent = continents[rng.gen_range(0..continents.len())].clone();
                let mut batch = vec![
                    qb4olap::member_of_triple(&member, &citizen_level),
                    qb4olap::rollup_triple(&member, &continent),
                    Triple::new(
                        member.clone(),
                        rdfs::label(),
                        Literal::string(format!("New citizenship {next_member}")),
                    ),
                ];
                batch.extend(new_observation(&mut rng, member, next_obs));
                next_obs += 1;
                next_member += 1;
                tool.endpoint().insert_triples(&batch).unwrap();
            }
            Mutation::RemoveObservation => {
                // Remove one whole observation in a single batch: the
                // catalog must absorb it by tombstoning the row (delta
                // path), not rebuilding.
                let nodes = observation_nodes(&tool, &dataset);
                let victim = &nodes[rng.gen_range(0..nodes.len())];
                assert!(remove_observation(&tool, victim) >= 4);
            }
            Mutation::CutBroaderLink => {
                // Make the hierarchy ragged at one member: the replay
                // re-reads the hierarchy, a delta.
                let citizens = &pools[0].1;
                let victim = &citizens[rng.gen_range(0..citizens.len())];
                assert!(
                    cut_broader_links(&tool, victim) > 0,
                    "victim had a continent link"
                );
            }
            Mutation::DanglingStructure => {
                // A structure triple on a fresh DSD node: unappliable, so
                // the catalog must take the rebuild fallback.
                tool.endpoint()
                    .insert_triples(&[Triple::new(
                        Term::iri(format!("http://example.org/mutation/dsd{round}")),
                        rdf::vocab::qb4o::has_level(),
                        Term::iri(format!("http://example.org/mutation/level{round}")),
                    )])
                    .unwrap();
            }
            Mutation::EditObservation | Mutation::EditDroppedObservation => {
                // Rewrite one materialized observation's measure: remove +
                // re-insert. Replayed together the edit applies by delta.
                // With a serve between, that replay drops the measureless
                // fragment and the re-insert forgets the drop and re-reads
                // the star: a delta too.
                let store = tool.endpoint().store();
                let solutions = tool
                    .endpoint()
                    .select(
                        "PREFIX qb: <http://purl.org/linked-data/cube#>
                         PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
                         SELECT ?o ?v WHERE { ?o a qb:Observation ; sdmx-measure:obsValue ?v }
                         ORDER BY ?o LIMIT 1",
                    )
                    .unwrap();
                let node = solutions.get(0, "o").cloned().unwrap();
                let value = solutions.get(0, "v").cloned().unwrap();
                assert!(store.remove(&Triple::new(node.clone(), sdmx_measure::obs_value(), value)));
                let served_between = matches!(mutation, Mutation::EditDroppedObservation);
                if served_between {
                    querying.materialize().unwrap();
                }
                store.insert(&Triple::new(
                    node,
                    sdmx_measure::obs_value(),
                    Literal::integer(if served_between { 8_888 } else { 9_999 }),
                ));
            }
        }

        // Every workload query: catalog-served columnar results must be
        // cell-identical to a fresh SPARQL evaluation of the same query.
        for (name, text) in datagen::workload::bench_queries() {
            let prepared = querying.prepare(&text).unwrap();
            let sparql_cube = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
            let columnar_cube = querying
                .execute(&prepared, ExecutionBackend::Columnar)
                .unwrap();
            assert_eq!(
                sparql_cube, columnar_cube,
                "backends diverge for '{name}' after mutation round {round}"
            );
        }

        // Catalog-served exploration must match its SPARQL oracle too.
        assert_eq!(
            explorer.members(&citizen_level).unwrap(),
            explorer.members_via_sparql(&citizen_level).unwrap(),
            "member listing diverges after mutation round {round}"
        );
        assert_eq!(
            explorer.member_count(&continent_level).unwrap(),
            explorer.member_count_via_sparql(&continent_level).unwrap()
        );
        assert_eq!(
            explorer
                .rollup_edges(&citizen_level, &continent_level)
                .unwrap(),
            explorer
                .rollup_edges_via_sparql(&citizen_level, &continent_level)
                .unwrap(),
            "roll-up navigation diverges after mutation round {round}"
        );
        use qb2olap::cubestore::MaintenanceStrategy;
        let reports = querying.maintenance_reports();
        let last = reports.last().unwrap();
        match mutation {
            Mutation::CutBroaderLink
            | Mutation::EditObservation
            | Mutation::EditDroppedObservation => {
                assert_eq!(last.strategy, MaintenanceStrategy::Delta, "{last:?}");
            }
            Mutation::DanglingStructure => {
                assert_eq!(last.strategy, MaintenanceStrategy::Rebuild, "{last:?}");
            }
            _ => {}
        }
    }

    // The interleaving exercised both maintenance paths.
    use qb2olap::cubestore::MaintenanceStrategy;
    let reports = querying.maintenance_reports();
    assert_eq!(reports[0].strategy, MaintenanceStrategy::Fresh);
    let deltas = reports
        .iter()
        .filter(|r| r.strategy == MaintenanceStrategy::Delta)
        .count();
    let rebuilds = reports
        .iter()
        .filter(|r| r.strategy == MaintenanceStrategy::Rebuild)
        .count();
    assert!(
        deltas >= 3,
        "observation appends refresh via deltas: {reports:?}"
    );
    assert!(
        rebuilds >= 2,
        "unappliable mutations fall back to rebuilds: {reports:?}"
    );
    assert!(reports
        .iter()
        .filter(|r| r.strategy == MaintenanceStrategy::Rebuild)
        .all(|r| r.reason.is_some()));
    // The whole-observation removals were absorbed as tombstones, not
    // rebuilds: at least one delta-strategy refresh reports removed rows.
    assert!(
        reports
            .iter()
            .any(|r| r.strategy == MaintenanceStrategy::Delta && r.rows_removed > 0),
        "no removal was absorbed via the tombstone path: {reports:?}"
    );
}

mod mutation_fuzzer {
    //! The mutation-sequence differential fuzzer: one seeded `StdRng`
    //! drives a long random sequence of interleaved pure-data mutations —
    //! integer and **float** observation appends, brand-new members,
    //! whole- and **partial**-observation removals (measure strips,
    //! dataset unlinks, dimension strips), split observations, restores of
    //! stripped measures (completing a dropped fragment), dimension edits
    //! (remove, then insert) and hierarchy edits (continent links cut and
    //! restored, `qb4o:memberOf` removed and restored, a second attribute
    //! value, a relabeled dataset, labeled float members) — against
    //! **one** `Store` carrying two
    //! datasets (the integer demo cube plus a float-measure cube), and
    //! after *every* step asserts
    //!
    //! * the catalog refreshed both cubes via the **delta** path (any
    //!   `Rebuild`/`Compaction` strategy fails the run — every mutation in
    //!   the sequence is delta-appliable, and the ops that tombstone wait
    //!   while a cube's live fraction is below 0.6, so the compaction
    //!   threshold is never crossed), and
    //! * catalog-served columnar results stay **bit-identical** to fresh
    //!   SPARQL evaluation, for the integer workload queries and for the
    //!   float cube's SUM/AVG aggregates (periodically also against a
    //!   from-scratch build of the float cube and the explorer's SPARQL
    //!   oracles).
    //!
    //! `QB2OLAP_FUZZ_STEPS` / `QB2OLAP_FUZZ_SEED` override the defaults
    //! for longer local soaks; ci.sh pins the fixed-seed smoke run.

    use std::collections::{BTreeMap, BTreeSet};

    use qb2olap::cubestore::{
        execute, CubeCatalog, CubeQuery, ExecOptions, MaintenanceStrategy, MaterializedCube,
        QueryOutput,
    };
    use qb2olap::{Endpoint, ExecutionBackend, Qb2Olap, SparqlVariant};
    use qb4olap::{
        AggregateFunction, Cardinality, CubeSchema, Dimension, Hierarchy, HierarchyStep,
        LevelComponent, MeasureSpec,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rdf::vocab::{qb, rdf as rdfv, rdfs, sdmx_measure, skos};
    use rdf::{Iri, Literal, Term, Triple};

    use super::{demo_tool, observation_nodes};

    fn firi(suffix: &str) -> Iri {
        Iri::new(format!("http://example.org/float/{suffix}"))
    }

    fn fmember(suffix: &str) -> Term {
        Term::iri(format!("http://example.org/float/member/{suffix}"))
    }

    /// A quarter-step decimal: exactly representable, canonical lexical
    /// form round-trips through the columnar encoding.
    fn quarters(rng: &mut StdRng) -> Literal {
        Literal::decimal(rng.gen_range(-4_000..=4_000i64) as f64 / 4.0)
    }

    /// Loads a small float-measure dataset (city → country hierarchy, two
    /// decimal measures: a SUM rate and an AVG index) into the demo store
    /// and returns its QB4OLAP schema.
    fn load_float_dataset(tool: &Qb2Olap, rng: &mut StdRng) -> CubeSchema {
        let city = firi("lv/city");
        let country = firi("lv/country");
        let rate = firi("measure/rate");
        let index = firi("measure/index");

        let mut builder = ::qb::QbDatasetBuilder::new(firi("ds"), firi("dsd"))
            .dimension(city.clone())
            .measure(rate.clone())
            .measure(index.clone());
        for i in 0..24 {
            let mut obs =
                ::qb::Observation::new(Term::iri(format!("http://example.org/float/obs/init{i}")));
            obs.dimensions
                .insert(city.clone(), fmember(&format!("fc{}", i % 8)));
            obs.measures
                .insert(rate.clone(), Term::Literal(quarters(rng)));
            obs.measures
                .insert(index.clone(), Term::Literal(quarters(rng)));
            builder = builder.observation(obs);
        }
        let (_, mut triples) = builder.build();
        for i in 0..8 {
            triples.push(qb4olap::member_of_triple(
                &fmember(&format!("fc{i}")),
                &city,
            ));
            triples.push(qb4olap::rollup_triple(
                &fmember(&format!("fc{i}")),
                &fmember(&format!("FK{}", i % 3)),
            ));
        }
        for k in 0..3 {
            triples.push(qb4olap::member_of_triple(
                &fmember(&format!("FK{k}")),
                &country,
            ));
        }
        tool.endpoint().insert_triples(&triples).unwrap();

        let mut schema = CubeSchema::new(firi("dsdQB4O"), firi("ds"));
        let mut hierarchy = Hierarchy::new(firi("hier/city"));
        hierarchy.levels = vec![city.clone(), country.clone()];
        hierarchy.steps = vec![HierarchyStep {
            child: city.clone(),
            parent: country,
            cardinality: Cardinality::ManyToOne,
        }];
        let mut dimension = Dimension::new(firi("dim/city"));
        dimension.hierarchies.push(hierarchy);
        schema.dimensions.push(dimension);
        schema.level_components.push(LevelComponent {
            level: city,
            cardinality: Cardinality::ManyToOne,
            dimension: Some(firi("dim/city")),
        });
        schema.measures.push(MeasureSpec {
            property: rate,
            aggregate: AggregateFunction::Sum,
        });
        schema.measures.push(MeasureSpec {
            property: index,
            aggregate: AggregateFunction::Avg,
        });
        schema
    }

    /// The bottom-level cube.
    fn scan(cube: &MaterializedCube) -> QueryOutput {
        execute(cube, &CubeQuery::default(), &ExecOptions::default(), None)
            .unwrap()
            .0
    }

    /// The float cube's SPARQL oracle: per-city SUM(rate) / AVG(index)
    /// over bottom-level members, compared **term-for-term** (bit-identical
    /// lexical forms) with the catalog-served columnar cells.
    fn assert_float_lockstep(
        tool: &Qb2Olap,
        catalog: &CubeCatalog,
        schema: &CubeSchema,
        step: usize,
    ) {
        let pin = catalog.serve_settled(tool.endpoint(), schema).unwrap();
        let cells = scan(pin.cube()).into_cells();
        let solutions = tool
            .endpoint()
            .select(&format!(
                "PREFIX qb: <http://purl.org/linked-data/cube#>
                 PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
                 SELECT ?c (SUM(?v) AS ?sum) (AVG(?w) AS ?avg) WHERE {{
                   ?o a qb:Observation ; qb:dataSet <{}> ;
                      <{}> ?c ; <{}> ?v ; <{}> ?w .
                   ?c qb4o:memberOf <{}> .
                 }} GROUP BY ?c",
                firi("ds").as_str(),
                firi("lv/city").as_str(),
                firi("measure/rate").as_str(),
                firi("measure/index").as_str(),
                firi("lv/city").as_str(),
            ))
            .unwrap();
        let mut oracle: BTreeMap<Term, (Term, Term)> = BTreeMap::new();
        for i in 0..solutions.len() {
            let city = solutions.get(i, "c").cloned().unwrap();
            let sum = solutions.get(i, "sum").cloned().unwrap();
            let avg = solutions.get(i, "avg").cloned().unwrap();
            oracle.insert(city, (sum, avg));
        }
        assert_eq!(
            cells.len(),
            oracle.len(),
            "float cube cell count diverges from SPARQL after step {step}"
        );
        for cell in &cells {
            let (sum, avg) = oracle.get(&cell.coordinates[0]).unwrap_or_else(|| {
                panic!("extra columnar cell {:?} at step {step}", cell.coordinates)
            });
            assert_eq!(
                cell.values[0].as_ref(),
                Some(sum),
                "float SUM diverges from SPARQL for {:?} after step {step}",
                cell.coordinates
            );
            assert_eq!(
                cell.values[1].as_ref(),
                Some(avg),
                "float AVG diverges from SPARQL for {:?} after step {step}",
                cell.coordinates
            );
        }
    }

    /// Every refresh so far took the delta path (the first build reports
    /// `Fresh`; anything else fails the run).
    fn assert_delta_only(catalog: &CubeCatalog, dataset: &Iri, step: usize) {
        let report = catalog.last_report(dataset).expect("dataset served");
        assert!(
            matches!(
                report.strategy,
                MaintenanceStrategy::Delta | MaintenanceStrategy::Fresh
            ),
            "unexpected {:?} refresh of <{}> at step {step}: {:?}",
            report.strategy,
            dataset.as_str(),
            report.reason
        );
    }

    #[test]
    fn mutation_sequence_fuzzer_keeps_catalog_and_sparql_in_lockstep() {
        // The qlsmith knob parser: decimal or hex, warn-and-default.
        let steps = qlsmith::env_u64("QB2OLAP_FUZZ_STEPS", 200) as usize;
        let seed = qlsmith::env_u64("QB2OLAP_FUZZ_SEED", 0xE14_5EED);
        let mut rng = StdRng::seed_from_u64(seed);

        let (tool, dataset) = demo_tool(250);
        // The float dataset's QB structure must be in the store *before*
        // the first materialization: structure triples are schema-level and
        // would (correctly) force a rebuild if they arrived as a delta.
        let float_schema = load_float_dataset(&tool, &mut rng);
        let float_dataset = float_schema.dataset.clone();
        let catalog = tool.catalog().clone();
        let querying = tool.querying(&dataset).unwrap();
        querying.materialize().unwrap();
        catalog
            .serve_settled(tool.endpoint(), &float_schema)
            .unwrap();
        let explorer = tool.explorer(&dataset).unwrap();

        let citizen_level = rdf::vocab::eurostat_property::citizen();
        let continent_level = rdf::vocab::demo_schema::continent();
        let demo_levels: Vec<(Iri, Vec<Term>)> = [
            citizen_level.clone(),
            rdf::vocab::eurostat_property::geo(),
            rdf::vocab::sdmx_dimension::ref_period(),
            rdf::vocab::eurostat_property::age(),
            rdf::vocab::eurostat_property::sex(),
            rdf::vocab::eurostat_property::asyl_app(),
        ]
        .into_iter()
        .map(|level| {
            let members = qb4olap::members_of_level(tool.endpoint(), &level).unwrap();
            assert!(!members.is_empty());
            (level, members)
        })
        .collect();
        let continents = qb4olap::members_of_level(tool.endpoint(), &continent_level).unwrap();
        let workload: Vec<(&str, String)> = datagen::workload::bench_queries();

        // Nodes a partial removal stripped or unlinked: the removal ops
        // leave them alone, and a restore op puts a stripped measure back.
        let mut forbidden: BTreeSet<Term> = BTreeSet::new();
        let mut stripped: Vec<Triple> = Vec::new();
        let mut next_obs = 0usize;
        let mut next_member = 0usize;
        // The rest of an observation whose citizenship value an earlier
        // step stored on its own (split op).
        let mut split_rest: Option<Vec<Triple>> = None;
        // Hierarchy triples a cut or removal op took out, for a later op to
        // put back.
        let mut cut_links: Vec<Triple> = Vec::new();
        let mut removed_memberships: Vec<Triple> = Vec::new();
        let continent_name = querying
            .schema()
            .level_attributes(&continent_level)
            .first()
            .expect("the demo's continent level has an attribute")
            .iri
            .clone();
        let mut op_counts = [0usize; 17];

        let demo_observation = |rng: &mut StdRng, serial: usize| -> Vec<Triple> {
            let node = Term::iri(format!("http://example.org/fuzz/obs{serial}"));
            let mut batch = vec![
                Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                Triple::new(node.clone(), qb::data_set(), Term::Iri(dataset.clone())),
                Triple::new(
                    node.clone(),
                    sdmx_measure::obs_value(),
                    Literal::integer(rng.gen_range(1..500)),
                ),
            ];
            for (level, members) in &demo_levels {
                let member = members[rng.gen_range(0..members.len())].clone();
                batch.push(Triple::new(node.clone(), level.clone(), member));
            }
            batch
        };

        let live_victims =
            |tool: &Qb2Olap, dataset: &Iri, forbidden: &BTreeSet<Term>| -> Vec<Term> {
                observation_nodes(tool, dataset)
                    .into_iter()
                    .filter(|node| !forbidden.contains(node))
                    .collect()
            };

        // Compaction is the catalog's designed reclaim, not a refusal, and
        // it is not what this fuzzer tests: an op that tombstones runs only
        // while the cube's live fraction is at least 0.6 (one step kills
        // at most one row, so it never crosses the 0.5 threshold).
        let may_tombstone = |dataset: &Iri| {
            let pin = catalog.current_snapshot(dataset).expect("dataset served");
            pin.cube().live_row_count() as f64 >= 0.6 * pin.cube().row_count() as f64
        };

        let float_observation = |rng: &mut StdRng, city: Term, serial: usize| -> Vec<Triple> {
            let node = Term::iri(format!("http://example.org/float/fuzz/obs{serial}"));
            vec![
                Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                Triple::new(node.clone(), qb::data_set(), Term::Iri(firi("ds"))),
                Triple::new(node.clone(), firi("lv/city"), city),
                Triple::new(node.clone(), firi("measure/rate"), quarters(rng)),
                Triple::new(node, firi("measure/index"), quarters(rng)),
            ]
        };

        for step in 0..steps {
            let op = rng.gen_range(0..17u32);
            op_counts[op as usize] += 1;
            match op {
                // Integer observation appends (1–3 per batch).
                0 => {
                    let mut batch = Vec::new();
                    for _ in 0..rng.gen_range(1..=3usize) {
                        batch.extend(demo_observation(&mut rng, next_obs));
                        next_obs += 1;
                    }
                    tool.endpoint().insert_triples(&batch).unwrap();
                }
                // A brand-new citizenship member (declared, linked into the
                // hierarchy) plus an observation referencing it.
                1 => {
                    let member = Term::iri(format!("http://example.org/fuzz/citizen{next_member}"));
                    let continent = continents[rng.gen_range(0..continents.len())].clone();
                    let mut batch = vec![
                        qb4olap::member_of_triple(&member, &citizen_level),
                        qb4olap::rollup_triple(&member, &continent),
                    ];
                    let mut obs = demo_observation(&mut rng, next_obs);
                    next_obs += 1;
                    next_member += 1;
                    // Rebind the citizenship dimension to the new member.
                    obs.retain(|t| t.predicate != citizen_level);
                    obs.push(Triple::new(
                        obs[0].subject.clone(),
                        citizen_level.clone(),
                        member,
                    ));
                    batch.extend(obs);
                    tool.endpoint().insert_triples(&batch).unwrap();
                }
                // Whole-observation removal (one batch = one delta).
                2 if may_tombstone(&dataset) => {
                    let victims = live_victims(&tool, &dataset, &forbidden);
                    if victims.len() > 150 {
                        let victim = &victims[rng.gen_range(0..victims.len())];
                        let removed =
                            tool.endpoint()
                                .store()
                                .remove_matching(Some(victim), None, None);
                        assert!(removed.len() >= 4);
                    }
                }
                // Partial removal: strip the measure value → the fragment
                // is *dropped*, the row tombstoned, no rebuild.
                3 if may_tombstone(&dataset) => {
                    let victims = live_victims(&tool, &dataset, &forbidden);
                    if victims.len() > 150 {
                        let victim = victims[rng.gen_range(0..victims.len())].clone();
                        let removed = tool.endpoint().store().remove_matching(
                            Some(&victim),
                            Some(&sdmx_measure::obs_value()),
                            None,
                        );
                        assert_eq!(removed.len(), 1);
                        forbidden.insert(victim);
                        stripped.extend(removed);
                    }
                }
                // Partial removal: strip the dataset link → the fragment is
                // invisible to a fresh build.
                4 if may_tombstone(&dataset) => {
                    let victims = live_victims(&tool, &dataset, &forbidden);
                    if victims.len() > 150 {
                        let victim = victims[rng.gen_range(0..victims.len())].clone();
                        let removed = tool.endpoint().store().remove_matching(
                            Some(&victim),
                            Some(&qb::data_set()),
                            None,
                        );
                        assert_eq!(removed.len(), 1);
                        forbidden.insert(victim);
                    }
                }
                // Partial removal: strip one dimension value → the
                // surviving (still complete) row is re-appended with that
                // dimension unbound.
                5 if may_tombstone(&dataset) => {
                    let victims = live_victims(&tool, &dataset, &forbidden);
                    if !victims.is_empty() {
                        let victim = victims[rng.gen_range(0..victims.len())].clone();
                        // Any of the five non-citizenship dimensions.
                        let (level, _) = &demo_levels[rng.gen_range(1..demo_levels.len())];
                        tool.endpoint()
                            .store()
                            .remove_matching(Some(&victim), Some(level), None);
                    }
                }
                // Float observation appends (the lifted NonIntegralAppend).
                6 => {
                    let mut batch = Vec::new();
                    for _ in 0..rng.gen_range(1..=2usize) {
                        let city = fmember(&format!("fc{}", rng.gen_range(0..8)));
                        batch.extend(float_observation(&mut rng, city, next_obs));
                        next_obs += 1;
                    }
                    tool.endpoint().insert_triples(&batch).unwrap();
                }
                // A new float-cube member + observation.
                7 => {
                    let member = fmember(&format!("fuzz{next_member}"));
                    next_member += 1;
                    let mut batch = vec![
                        qb4olap::member_of_triple(&member, &firi("lv/city")),
                        qb4olap::rollup_triple(
                            &member,
                            &fmember(&format!("FK{}", rng.gen_range(0..3))),
                        ),
                    ];
                    batch.extend(float_observation(&mut rng, member, next_obs));
                    next_obs += 1;
                    tool.endpoint().insert_triples(&batch).unwrap();
                }
                // A split observation: one step stores the citizenship
                // value of a fresh node alone (invisible: no dataset link
                // yet), a later one the rest — whose star read must pick
                // the early value up.
                9 => match split_rest.take() {
                    Some(rest) => {
                        tool.endpoint().insert_triples(&rest).unwrap();
                    }
                    None => {
                        let mut rest = demo_observation(&mut rng, next_obs);
                        next_obs += 1;
                        let at = rest
                            .iter()
                            .position(|t| t.predicate == citizen_level)
                            .unwrap();
                        tool.endpoint().insert_triples(&[rest.remove(at)]).unwrap();
                        split_rest = Some(rest);
                    }
                },
                // A stripped measure comes back: the dropped fragment is
                // complete again, and its star read appends it.
                10 if !stripped.is_empty() => {
                    let measure = stripped.swap_remove(rng.gen_range(0..stripped.len()));
                    forbidden.remove(&measure.subject);
                    tool.endpoint().insert_triples(&[measure]).unwrap();
                }
                // A dimension edit of a live observation: its value goes
                // (remove_matching), another comes (insert), one replay.
                11 if may_tombstone(&dataset) => {
                    let victims = live_victims(&tool, &dataset, &forbidden);
                    if !victims.is_empty() {
                        let victim = victims[rng.gen_range(0..victims.len())].clone();
                        let (level, members) = &demo_levels[rng.gen_range(0..demo_levels.len())];
                        let member = members[rng.gen_range(0..members.len())].clone();
                        let store = tool.endpoint().store();
                        store.remove_matching(Some(&victim), Some(level), None);
                        store.insert(&Triple::new(victim, level.clone(), member));
                    }
                }
                // Float removals: whole observation, or a one-measure strip
                // that drops the fragment.
                8 if may_tombstone(&float_dataset) => {
                    let victims = live_victims(&tool, &float_dataset, &forbidden);
                    if victims.len() > 20 {
                        let victim = victims[rng.gen_range(0..victims.len())].clone();
                        if rng.gen_range(0..2) == 0 {
                            assert!(
                                tool.endpoint()
                                    .store()
                                    .remove_matching(Some(&victim), None, None)
                                    .len()
                                    >= 5
                            );
                        } else {
                            let removed = tool.endpoint().store().remove_matching(
                                Some(&victim),
                                Some(&firi("measure/index")),
                                None,
                            );
                            assert_eq!(removed.len(), 1);
                            forbidden.insert(victim);
                            stripped.extend(removed);
                        }
                    }
                }
                // A demo citizen's continent link is cut, or a cut one comes
                // back: the citizen turns ragged, or whole again.
                12 => {
                    if !cut_links.is_empty() && rng.gen_bool(0.5) {
                        let link = cut_links.swap_remove(rng.gen_range(0..cut_links.len()));
                        tool.endpoint().insert_triples(&[link]).unwrap();
                    } else {
                        let citizens = &demo_levels[0].1;
                        let citizen = &citizens[rng.gen_range(0..citizens.len())];
                        cut_links.extend(tool.endpoint().store().remove_matching(
                            Some(citizen),
                            Some(&skos::broader()),
                            None,
                        ));
                    }
                }
                // A demo member's `qb4o:memberOf` is removed, or a removed
                // one comes back.
                13 => {
                    if !removed_memberships.is_empty() && rng.gen_bool(0.5) {
                        let at = rng.gen_range(0..removed_memberships.len());
                        let membership = removed_memberships.swap_remove(at);
                        tool.endpoint().insert_triples(&[membership]).unwrap();
                    } else {
                        let (level, members) = &demo_levels[rng.gen_range(0..demo_levels.len())];
                        let member = &members[rng.gen_range(0..members.len())];
                        removed_memberships.extend(tool.endpoint().store().remove_matching(
                            Some(member),
                            Some(&rdf::vocab::qb4o::member_of()),
                            Some(&Term::Iri(level.clone())),
                        ));
                    }
                }
                // A continent gains a second name. It sorts after every
                // first name, so the first value the build keeps stays the
                // one SPARQL's dices compare.
                14 => {
                    let continent = &continents[rng.gen_range(0..continents.len())];
                    let name = Literal::lang_string(format!("Zz {step}"), "en");
                    tool.endpoint()
                        .insert_triples(&[Triple::new(
                            continent.clone(),
                            continent_name.clone(),
                            name,
                        )])
                        .unwrap();
                }
                // The demo dataset is relabeled: its labels go, one comes.
                15 => {
                    let dataset_node = Term::Iri(dataset.clone());
                    let store = tool.endpoint().store();
                    store.remove_matching(Some(&dataset_node), Some(&rdfs::label()), None);
                    store.insert(&Triple::new(
                        dataset_node,
                        rdfs::label(),
                        Literal::string(format!("Asylum applications, step {step}")),
                    ));
                }
                // A float-cube member gains a label.
                16 => {
                    let city = fmember(&format!("fc{}", rng.gen_range(0..8)));
                    tool.endpoint()
                        .insert_triples(&[Triple::new(
                            city,
                            rdfs::label(),
                            Literal::string(format!("City, step {step}")),
                        )])
                        .unwrap();
                }
                // An op that tombstones while its cube's live fraction is
                // low, or a restore with nothing stripped.
                _ => {}
            }

            // Both cubes must absorb the step via the delta path...
            querying.materialize().unwrap();
            catalog
                .serve_settled(tool.endpoint(), &float_schema)
                .unwrap();
            assert_delta_only(&catalog, &dataset, step);
            assert_delta_only(&catalog, &float_dataset, step);

            // ... and stay in lockstep with fresh SPARQL evaluation: one
            // rotating workload query per step, the float aggregates every
            // step, the full battery periodically.
            let heavy = step % 25 == 24;
            let checks: Vec<&(&str, String)> = if heavy {
                workload.iter().collect()
            } else {
                vec![&workload[step % workload.len()]]
            };
            for (name, text) in checks {
                let prepared = querying.prepare(text).unwrap();
                let sparql_cube = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
                let columnar_cube = querying
                    .execute(&prepared, ExecutionBackend::Columnar)
                    .unwrap();
                assert_eq!(
                    sparql_cube, columnar_cube,
                    "backends diverge for '{name}' after fuzz step {step} (seed {seed})"
                );
            }
            assert_float_lockstep(&tool, &catalog, &float_schema, step);
            if heavy {
                // The delta-refreshed float cube's compensated sums are
                // bit-identical to a from-scratch build's.
                let settled = catalog
                    .serve_settled(tool.endpoint(), &float_schema)
                    .unwrap();
                let rebuilt =
                    MaterializedCube::from_endpoint(tool.endpoint(), &float_schema).unwrap();
                assert_eq!(
                    scan(settled.cube()),
                    scan(&rebuilt),
                    "float scan diverges from a rebuild after step {step}"
                );
                // Catalog-served exploration matches its SPARQL oracle.
                assert_eq!(
                    explorer.members(&citizen_level).unwrap(),
                    explorer.members_via_sparql(&citizen_level).unwrap()
                );
                assert_eq!(
                    explorer
                        .rollup_edges(&citizen_level, &continent_level)
                        .unwrap(),
                    explorer
                        .rollup_edges_via_sparql(&citizen_level, &continent_level)
                        .unwrap()
                );
                // The delta-refreshed demo cube still matches a
                // from-scratch materialization, physically: same live rows.
                let served = querying.materialize().unwrap();
                let rebuilt =
                    MaterializedCube::from_endpoint(tool.endpoint(), querying.schema()).unwrap();
                assert_eq!(served.live_row_count(), rebuilt.row_count());
                assert_eq!(
                    served.stats().observations_seen,
                    rebuilt.stats().observations_seen
                );
            }
        }

        // The sequence exercised every mutation class and never rebuilt.
        assert!(
            op_counts.iter().all(|&count| count > 0),
            "seed {seed} did not exercise every op in {steps} steps: {op_counts:?}"
        );
        for ds in [&dataset, &float_dataset] {
            let reports = catalog.reports(ds);
            assert!(
                reports.iter().all(|r| matches!(
                    r.strategy,
                    MaintenanceStrategy::Delta | MaintenanceStrategy::Fresh
                )),
                "<{}> saw a non-delta refresh: {reports:?}",
                ds.as_str()
            );
            assert!(
                reports.iter().any(|r| r.rows_removed > 0),
                "<{}> absorbed no removal via tombstones",
                ds.as_str()
            );
        }
    }
}

/// The tombstone/compaction gate: seeded whole-observation removals are
/// absorbed as tombstones until the live-row fraction crosses the
/// compaction threshold, at which point the catalog re-materializes — and
/// at *every* boundary the catalog-served columnar results must stay
/// cell-identical to fresh SPARQL evaluation, the explorer summary
/// identical to the SPARQL dataset listing.
#[test]
fn removals_stay_in_lockstep_across_compaction_boundaries() {
    use qb2olap::cubestore::{MaintenanceStrategy, RebuildReason};

    let (tool, dataset) = demo_tool(400);
    let querying = tool.querying(&dataset).unwrap();
    let initial = querying.materialize().unwrap();
    let initial_rows = initial.row_count();
    let explorer = tool.explorer(&dataset).unwrap();

    let mut rng = StdRng::seed_from_u64(0xDEAD_BEEF);
    let assert_parity = |round: usize| {
        for (name, text) in datagen::workload::bench_queries() {
            let prepared = querying.prepare(&text).unwrap();
            let sparql_cube = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
            let columnar_cube = querying
                .execute(&prepared, ExecutionBackend::Columnar)
                .unwrap();
            assert_eq!(
                sparql_cube, columnar_cube,
                "backends diverge for '{name}' after removal round {round}"
            );
        }
        // The catalog-served summary (observation count, label) must track
        // the removals exactly like the SPARQL dataset listing does.
        let summary = explorer.summary().unwrap();
        let listed = explorer::list_cubes(tool.endpoint())
            .unwrap()
            .into_iter()
            .find(|c| c.dataset == dataset)
            .unwrap();
        assert_eq!(
            summary.observations, listed.observations,
            "summary diverges from the SPARQL listing after round {round}"
        );
    };

    // Remove ~60 observations per round until the catalog compacts; the
    // physical row space only shrinks at the compaction boundary.
    let mut compacted_at = None;
    for round in 0..6 {
        let nodes = observation_nodes(&tool, &dataset);
        for _ in 0..60 {
            let victim = nodes[rng.gen_range(0..nodes.len())].clone();
            if tool
                .endpoint()
                .store()
                .triples_matching(Some(&victim), None, None)
                .is_empty()
            {
                continue; // already removed this round
            }
            remove_observation(&tool, &victim);
        }
        assert_parity(round);
        let report = querying.maintenance_reports().last().cloned().unwrap();
        match report.strategy {
            MaintenanceStrategy::Delta => {
                assert!(report.rows_removed > 0, "removals tombstone: {report:?}");
            }
            MaintenanceStrategy::Compaction => {
                let reason = report.reason.clone().expect("compaction reports a reason");
                assert!(
                    matches!(reason, RebuildReason::LowLiveFraction { .. }),
                    "{reason}"
                );
                compacted_at = Some(round);
                break;
            }
            other => panic!("unexpected refresh strategy {other:?}: {report:?}"),
        }
    }
    let compacted_at = compacted_at.expect("enough removals to cross the 0.5 live fraction");

    // After the compaction boundary the cube is dense again and still in
    // lockstep — including for one more removal + append round.
    let compacted = querying.materialize().unwrap();
    assert_eq!(
        compacted.tombstoned_rows(),
        0,
        "compaction reclaimed the dead rows"
    );
    assert!(compacted.row_count() < initial_rows, "physical rows shrank");
    let nodes = observation_nodes(&tool, &dataset);
    let victim = nodes[rng.gen_range(0..nodes.len())].clone();
    remove_observation(&tool, &victim);
    assert_parity(compacted_at + 1);
    let report = querying.maintenance_reports().last().cloned().unwrap();
    assert_eq!(report.strategy, MaintenanceStrategy::Delta);
    assert_eq!(report.rows_removed, 1);
}
