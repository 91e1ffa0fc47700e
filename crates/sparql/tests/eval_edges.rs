//! Edges of the id-level evaluator that the generated qlsmith campaigns
//! reach rarely, pinned against literal expected tables: computed terms
//! (side-interner ids) meeting stored ones, a variable repeated inside one
//! triple pattern, OPTIONAL / UNION / MINUS / EXISTS over rows with unbound
//! slots, `VALUES` with `UNDEF`, and the output order of GROUP BY, DISTINCT
//! and ORDER BY. Every expected table was produced by the `Term`-row
//! evaluator this one replaced. The last table holds the join planner to
//! the identity plan over FILTER placement, reordered runs and the output
//! forms that depend on row order.

use rdf::Term;
use sparql::testutil::{evaluate_textual, evaluate_unrestored};
use sparql::{
    ConservativeEndpoint, EncodedSolutions, Endpoint, EvalCounters, LocalEndpoint, QueryResults,
};

const GRAPH: &str = r#"
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:obs1 a ex:Observation ; ex:country ex:SY ; ex:year "2013"^^xsd:gYear ; ex:value 10 .
ex:obs2 a ex:Observation ; ex:country ex:SY ; ex:year "2014"^^xsd:gYear ; ex:value 20 .
ex:obs3 a ex:Observation ; ex:country ex:NG ; ex:year "2014"^^xsd:gYear ; ex:value 5 .
ex:obs4 a ex:Observation ; ex:country ex:FR ; ex:year "2014"^^xsd:gYear ; ex:value 7 .
ex:obs5 a ex:Observation ; ex:country ex:XX ; ex:value 7.5 , "n/a" .

ex:SY ex:continent ex:Asia ; rdfs:label "Syria"@en , "Syrie"@fr .
ex:NG ex:continent ex:Africa ; rdfs:label "Nigeria"@en .
ex:FR ex:continent ex:Europe ; rdfs:label "France"@en ; ex:value 10 .
ex:Asia ex:part ex:World . ex:Africa ex:part ex:World .
ex:X ex:rel ex:X , ex:Y . ex:rel ex:rel ex:rel . ex:Y ex:rel ex:X .
ex:ten ex:is 10 . ex:tenD ex:is 10.0 . ex:tenS ex:is "10" .
"#;

const PREFIXES: &str = "PREFIX ex: <http://example.org/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n";

fn endpoint() -> LocalEndpoint {
    let endpoint = LocalEndpoint::new();
    endpoint.store().load_turtle(GRAPH).unwrap();
    endpoint
}

/// IRIs by local name, plain strings quoted, other literals by lexical
/// form, unbound as `-`.
fn render(solutions: &EncodedSolutions) -> Vec<String> {
    let cell = |id: &u32| match solutions.term(*id) {
        None => "-".to_string(),
        Some(Term::Literal(lit)) if lit.language().is_some() => {
            format!("\"{}\"@{}", lit.lexical(), lit.language().unwrap())
        }
        Some(Term::Literal(lit)) if lit.datatype() == &rdf::vocab::xsd::string() => {
            format!("\"{}\"", lit.lexical())
        }
        Some(term) => term.display_label(),
    };
    let header = solutions
        .variables
        .iter()
        .map(|v| v.name())
        .collect::<Vec<_>>()
        .join(" ");
    let rows = solutions
        .rows()
        .map(|row| row.iter().map(cell).collect::<Vec<_>>().join(" "));
    std::iter::once(header).chain(rows).collect()
}

/// Holds a result to the numbering that makes `==` mean "same table":
/// `terms` lists each distinct term once, in row-major first-occurrence
/// order, so every bound cell names a term seen before or the next new one.
fn assert_first_occurrence_numbering(solutions: &EncodedSolutions, query: &str) {
    let mut next = 0;
    for &id in solutions.rows().flatten() {
        if id == EncodedSolutions::UNBOUND {
            continue;
        }
        assert!(id <= next, "{query}: cell {id} skips term {next}");
        if id == next {
            next += 1;
        }
    }
    assert_eq!(
        next as usize,
        solutions.terms.len(),
        "{query}: unused terms"
    );
    let distinct: std::collections::HashSet<&Term> = solutions.terms.iter().collect();
    assert_eq!(
        distinct.len(),
        solutions.terms.len(),
        "{query}: a term twice"
    );
}

/// Evaluates `query` and compares the result with the expected table
/// (header line, then one line per solution, in order); checks the terms'
/// numbering, and that a forwarding wrapper answers the same result as the
/// endpoint it wraps.
fn check(query: &str, expected: &[&str]) {
    let endpoint = endpoint();
    let text = format!("{PREFIXES}{query}");
    let solutions = endpoint.select(&text).unwrap();
    assert_eq!(render(&solutions), expected, "{query}");
    assert_first_occurrence_numbering(&solutions, query);
    let wrapped = ConservativeEndpoint::new(endpoint).select(&text).unwrap();
    assert_eq!(wrapped, solutions, "{query}");
}

#[test]
fn computed_terms_join_and_compare_with_stored_terms() {
    // A computed term the graph also stores has the graph's id: it joins.
    check(
        "SELECT * WHERE { BIND(5 + 5 AS ?ten) ?o ex:value ?ten }",
        &["ten o", "10 obs1", "10 FR"],
    );
    // One the graph has never seen matches nothing, but stays a value.
    check(
        "SELECT * WHERE { BIND(500 + 500 AS ?k) OPTIONAL { ?o ex:value ?k } }",
        &["k o", "1000 -"],
    );
    check(
        "SELECT * WHERE { ?o ex:value ?v . BIND(?v * 2 AS ?d) OPTIONAL { ?o2 ex:value ?d } FILTER(?d != ?v) }",
        &[
            "o v d o2",
            "obs1 10 20 obs2",
            "FR 10 20 obs2",
            "obs2 20 40 -",
            "obs3 5 10 obs1",
            "obs3 5 10 FR",
            "obs4 7 14 -",
            "obs5 7.5 15 -",
            // `"n/a" * 2` is an error: ?d stays unbound and the OPTIONAL
            // binds it to every value.
            "obs5 \"n/a\" 10 obs1",
            "obs5 \"n/a\" 10 FR",
            "obs5 \"n/a\" 20 obs2",
            "obs5 \"n/a\" 5 obs3",
            "obs5 \"n/a\" 7 obs4",
            "obs5 \"n/a\" 7.5 obs5",
        ],
    );
    // An aggregate result joined against stored terms, and one that only
    // exists as a computed term compared against a constant.
    check(
        "SELECT * WHERE { { SELECT ?c (MAX(?v) AS ?m) WHERE { ?o ex:country ?c ; ex:value ?v } GROUP BY ?c } ?o2 ex:value ?m ; ex:country ?c }",
        &["c m o2", "FR 7 obs4", "NG 5 obs3", "SY 20 obs2", "XX \"n/a\" obs5"],
    );
    check(
        "SELECT ?c ?total WHERE { ?c ex:continent ?k . { SELECT ?c (SUM(?v) AS ?total) WHERE { ?o ex:country ?c ; ex:value ?v } GROUP BY ?c } FILTER(?total = 30 || ?total < 6) }",
        &["c total", "SY 30", "NG 5"],
    );
    // Value equality is numeric, term identity is not; ids decide the latter.
    check(
        "SELECT ?a ?b WHERE { ?a ex:is ?x . ?b ex:is ?y . FILTER(?x = ?y) }",
        &[
            "a b",
            "ten ten",
            "ten tenD",
            "tenD ten",
            "tenD tenD",
            "tenS tenS",
        ],
    );
    check(
        "SELECT ?a ?b WHERE { ?a ex:is ?x . ?b ex:is ?y . FILTER(SAMETERM(?x, ?y + 0)) }",
        &["a b", "ten ten", "ten tenD"],
    );
    // VALUES constants the graph does not hold are values all the same.
    check(
        "SELECT * WHERE { VALUES ?x { \"foo\" 42 ex:nope 10 } BIND(STR(?x) AS ?s) OPTIONAL { ?who ex:is ?x } }",
        &[
            "x s who",
            "\"foo\" \"foo\" -",
            "42 \"42\" -",
            "nope \"http://example.org/nope\" -",
            "10 \"10\" ten",
        ],
    );
}

#[test]
fn a_variable_repeated_in_one_pattern_must_match_itself() {
    check("SELECT ?x WHERE { ?x ex:rel ?x }", &["x", "X", "rel"]);
    check("SELECT * WHERE { ?x ?x ?x }", &["x", "rel"]);
    check("SELECT * WHERE { ?s ?p ?s }", &["s p", "X rel", "rel rel"]);
    check(
        "SELECT * WHERE { ?x ex:rel ?y . ?y ex:rel ?x }",
        &["x y", "X X", "Y X", "rel rel", "X Y"],
    );
    // A literal bound to a predicate variable matches nothing.
    check(
        "SELECT * WHERE { ?obs ex:value ?v . ?s ?v ?o }",
        &["obs v s o"],
    );
}

#[test]
fn optional_union_minus_and_exists_over_unbound_slots() {
    // UNION inside OPTIONAL: each row's extensions stay together, in
    // branch order.
    check(
        "SELECT * WHERE { ?obs ex:country ?c . OPTIONAL { { ?c ex:continent ?k } UNION { ?c rdfs:label ?k } } }",
        &[
            "obs c k",
            "obs1 SY Asia",
            "obs1 SY \"Syria\"@en",
            "obs1 SY \"Syrie\"@fr",
            "obs2 SY Asia",
            "obs2 SY \"Syria\"@en",
            "obs2 SY \"Syrie\"@fr",
            "obs3 NG Africa",
            "obs3 NG \"Nigeria\"@en",
            "obs4 FR Europe",
            "obs4 FR \"France\"@en",
            "obs5 XX -",
        ],
    );
    // Nested OPTIONALs, the inner ones over rows the outer left partial.
    check(
        "SELECT * WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k . OPTIONAL { ?k ex:nope ?z } OPTIONAL { { ?k ex:part ?w } UNION { ?c rdfs:label ?w } } } OPTIONAL { ?obs ex:year ?y } }",
        &[
            "obs c k z w y",
            "obs1 SY Asia - World 2013",
            "obs1 SY Asia - \"Syria\"@en 2013",
            "obs1 SY Asia - \"Syrie\"@fr 2013",
            "obs2 SY Asia - World 2014",
            "obs2 SY Asia - \"Syria\"@en 2014",
            "obs2 SY Asia - \"Syrie\"@fr 2014",
            "obs3 NG Africa - World 2014",
            "obs3 NG Africa - \"Nigeria\"@en 2014",
            "obs4 FR Europe - \"France\"@en 2014",
            "obs5 XX - - - -",
        ],
    );
    // MINUS only removes on a shared *bound* variable.
    check(
        "SELECT * WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k } MINUS { ?c2 ex:continent ?k . FILTER(?k = ex:Asia) } }",
        &["obs c k c2", "obs3 NG Africa -", "obs4 FR Europe -", "obs5 XX - -"],
    );
    check(
        "SELECT ?obs WHERE { ?obs ex:country ?c . MINUS { ?x ex:continent ex:Asia } }",
        &["obs", "obs1", "obs2", "obs3", "obs4", "obs5"],
    );
    // EXISTS sees the row's bindings; an unbound slot is a wildcard in it.
    check(
        "SELECT ?obs ?k WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k . FILTER EXISTS { ?obs ex:value ?v . FILTER(?v > 6) } } }",
        &["obs k", "obs1 Asia", "obs2 Asia", "obs3 -", "obs4 Europe", "obs5 -"],
    );
    check(
        "SELECT ?c ?k WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k . FILTER NOT EXISTS { { ?obs ex:value 10 } UNION { ?obs ex:value 5 } } } } ORDER BY ?k",
        &["c k", "SY -", "NG -", "XX -", "SY Asia", "FR Europe"],
    );
    check(
        "SELECT * WHERE { ?c ex:continent ?k . BIND(EXISTS { ?c ex:value ?v } AS ?hasValue) }",
        &[
            "c k hasValue v",
            "SY Asia false -",
            "NG Africa false -",
            "FR Europe true -",
        ],
    );
    // `SELECT *` reports the variables evaluation reached, in that order: a
    // body that never ran (no rows reached it) contributes none.
    check(
        "SELECT * WHERE { ?s ex:nothing ?x . OPTIONAL { ?s ex:p ?opt } }",
        &["s x"],
    );
    check(
        "SELECT * WHERE { ?obs ex:nope ?v . FILTER EXISTS { ?obs ex:value ?n } }",
        &["obs v"],
    );
    check(
        "SELECT * WHERE { ?obs ex:value ?v . FILTER EXISTS { ?obs ex:nope ?n } }",
        &["obs v n"],
    );
}

#[test]
fn values_with_undef_joins_on_what_is_bound() {
    let expected = ["obs1 SY 10", "obs2 SY 20", "obs3 NG 5", "obs4 FR 7"];
    let rows = "{ (ex:SY UNDEF) (UNDEF 5) (ex:FR 7) (ex:FR 8) }";
    check(
        &format!(
            "SELECT ?obs ?c ?v WHERE {{ VALUES (?c ?v) {rows} ?obs ex:country ?c ; ex:value ?v }}"
        ),
        &[&["obs c v"][..], &expected[..]].concat(),
    );
    check(
        &format!("SELECT ?obs ?c ?v WHERE {{ ?obs ex:country ?c ; ex:value ?v . VALUES (?c ?v) {rows} }}"),
        &[&["obs c v"][..], &expected[..]].concat(),
    );
    // UNDEF meeting an unbound slot: the row survives once per compatible
    // VALUES row.
    check(
        "SELECT * WHERE { ?obs ex:country ?c . OPTIONAL { ?obs ex:year ?y } VALUES (?y ?c) { (\"2014\"^^xsd:gYear UNDEF) (UNDEF ex:XX) } }",
        &["obs c y", "obs2 SY 2014", "obs3 NG 2014", "obs4 FR 2014", "obs5 XX 2014", "obs5 XX -"],
    );
}

#[test]
fn group_distinct_and_order_by_output_order() {
    // Groups come in `Term` order of their keys — unbound first, IRIs by
    // string — whatever order the rows arrived in.
    check(
        "SELECT ?k (COUNT(*) AS ?n) (SUM(?v) AS ?s) (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SAMPLE(?v) AS ?any) (GROUP_CONCAT(?v) AS ?all) WHERE { ?obs ex:country ?c ; ex:value ?v . OPTIONAL { ?c ex:continent ?k } } GROUP BY ?k",
        &[
            "k n s a lo hi any all",
            "- 2 - - 7.5 \"n/a\" 7.5 \"7.5 n/a\"",
            "Africa 1 5 5.0 5 5 5 \"5\"",
            "Asia 2 30 15.0 10 20 10 \"10 20\"",
            "Europe 1 7 7.0 7 7 7 \"7\"",
        ],
    );
    check(
        "SELECT ?k ?y (COUNT(DISTINCT ?c) AS ?n) WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k } OPTIONAL { ?obs ex:year ?y } } GROUP BY ?k ?y",
        &["k y n", "- - 1", "Africa 2014 1", "Asia 2013 1", "Asia 2014 1", "Europe 2014 1"],
    );
    // Numeric literals order by value inside the key order.
    check(
        "SELECT ?v (COUNT(*) AS ?n) WHERE { ?s ex:value ?v . FILTER(DATATYPE(?v) = xsd:integer) } GROUP BY ?v",
        &["v n", "5 1", "7 1", "10 2", "20 1"],
    );
    check(
        "SELECT ?c (SUM(?v) AS ?total) WHERE { ?o ex:country ?c ; ex:value ?v } GROUP BY ?c HAVING (SUM(?v) > 6 && COUNT(*) < 2) ORDER BY DESC(?total)",
        &["c total", "FR 7"],
    );
    // An implicit group exists even over no rows; an explicit one does not.
    check(
        "SELECT (COUNT(*) AS ?n) (AVG(?v) AS ?a) (SUM(?v) AS ?s) (MIN(?v) AS ?m) WHERE { ?x ex:doesNotExist ?v }",
        &["n a s m", "0 0 0 -"],
    );
    check(
        "SELECT ?c (COUNT(*) AS ?n) WHERE { ?x ex:doesNotExist ?c } GROUP BY ?c",
        &["c n"],
    );
    // DISTINCT keeps first occurrences, in arrival order.
    check(
        "SELECT DISTINCT ?k ?y WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k } OPTIONAL { ?obs ex:year ?y } }",
        &["k y", "Asia 2013", "Asia 2014", "Africa 2014", "Europe 2014", "- -"],
    );
    check(
        "SELECT DISTINCT ?c WHERE { ?obs ex:country ?c ; ex:value ?v } ORDER BY DESC(?v) LIMIT 3 OFFSET 1",
        &["c", "XX", "FR", "NG"],
    );
    // ORDER BY is numeric-aware and stable on ties.
    check(
        "SELECT * WHERE { ?obs ex:value ?v } ORDER BY ?v ?obs",
        &[
            "obs v",
            "obs3 5",
            "obs4 7",
            "obs5 7.5",
            "FR 10",
            "obs1 10",
            "obs2 20",
            "obs5 \"n/a\"",
        ],
    );
    check(
        "SELECT ?obs WHERE { ?obs ex:country ?c } ORDER BY DESC(?c)",
        &["obs", "obs5", "obs1", "obs2", "obs3", "obs4"],
    );
}

/// ORDER BY and the group order over every term of a graph of literals of
/// mixed kinds, a case from when `Term`'s order was not total there: each
/// key must form exactly one group, and every row must come back.
#[test]
fn an_inconsistent_term_order_neither_panics_nor_splits_groups() {
    let endpoint = endpoint();
    let all = endpoint
        .select(&format!(
            "{PREFIXES}SELECT * WHERE {{ ?s ?p ?o }} ORDER BY ?o DESC(?s)"
        ))
        .unwrap();
    assert_eq!(all.len(), endpoint.triple_count());
    let groups = endpoint
        .select(&format!(
            "{PREFIXES}SELECT ?o (COUNT(*) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?o"
        ))
        .unwrap();
    let mut keys: Vec<Option<&Term>> = groups.rows().map(|row| groups.term(row[0])).collect();
    let distinct = endpoint
        .select(&format!(
            "{PREFIXES}SELECT DISTINCT ?o WHERE {{ ?s ?p ?o }}"
        ))
        .unwrap();
    assert_eq!(keys.len(), distinct.len());
    keys.dedup();
    assert_eq!(keys.len(), distinct.len(), "one group per distinct key");
    let year = Term::Literal(rdf::Literal::year(2014));
    let of_2014 = (0..groups.len())
        .find(|&row| groups.get(row, "o") == Some(&year))
        .unwrap();
    assert_eq!(groups.get(of_2014, "n"), Some(&Term::integer(3)));
}

/// ORDER BY's order is total: a NaN sorts after every other number, as in
/// `Term` order, so a column holding NaN, 1, 2, a string and an unbound
/// value sorts to one table whatever order its rows arrive in, ascending
/// and descending.
#[test]
fn order_by_over_nan_numbers_strings_and_unbound_is_one_table_for_every_input_order() {
    let endpoint = endpoint();
    let values = ["UNDEF", "\"NaN\"^^xsd:double", "1", "2", "\"s\""];
    // Every permutation of the five rows: the base-5 numbers whose five
    // digits are all different.
    let orders: Vec<Vec<usize>> = (0..5usize.pow(5))
        .map(|number| {
            (0..5)
                .map(|digit| number / 5usize.pow(digit) % 5)
                .collect::<Vec<_>>()
        })
        .filter(|order| (0..5).all(|index| order.contains(&index)))
        .collect();
    assert_eq!(orders.len(), 120);
    for (direction, expected) in [
        ("?v", ["v", "-", "1", "2", "NaN", "\"s\""]),
        ("DESC(?v)", ["v", "\"s\"", "NaN", "2", "1", "-"]),
    ] {
        for order in &orders {
            let rows: Vec<String> = order
                .iter()
                .map(|&index| format!("({})", values[index]))
                .collect();
            let query = format!(
                "{PREFIXES}SELECT ?v WHERE {{ VALUES (?v) {{ {} }} }} ORDER BY {direction}",
                rows.join(" ")
            );
            let solutions = endpoint.select(&query).unwrap();
            assert_eq!(render(&solutions), expected, "{query}");
        }
    }
}

/// The join planner against the identity plan: each query must return
/// exactly the identity plan's table (`sparql::testutil::evaluate_textual`:
/// textual join order, FILTERs over their group's final rows), row for
/// row. `moved` says whether the plan must touch a different number of
/// intermediate rows than textual evaluation — i.e. that the case really
/// reorders a run or moves a FILTER rather than passing trivially.
#[test]
fn planned_runs_return_the_identity_plan_row_for_row() {
    let cases: &[(&str, bool)] = &[
        // A FILTER over a variable only an OPTIONAL binds stays last.
        (
            "SELECT * WHERE { ?obs ex:country ?c . ?c ex:continent ?k . OPTIONAL { ?c rdfs:label ?l } FILTER(!BOUND(?l) || LANG(?l) = \"en\") }",
            true,
        ),
        // A FILTER with EXISTS stays last.
        (
            "SELECT * WHERE { ?obs ex:country ?c . ?c ex:continent ?k . FILTER EXISTS { ?k ex:part ?w } }",
            true,
        ),
        // A FILTER over a BIND variable, and one over a variable a later
        // BIND rebinds: neither may run early.
        (
            "SELECT * WHERE { ?obs ex:value ?v . ?obs ex:country ?c . ?c ex:continent ?k . BIND(?v * 2 AS ?d) FILTER(?d > 12) }",
            true,
        ),
        (
            "SELECT * WHERE { ?obs ex:country ?c . ?c ex:continent ?k . FILTER(?k = ex:Asia) BIND(ex:Europe AS ?k) }",
            true,
        ),
        // An OPTIONAL after the run registers its variables only if rows
        // reach it, so the run places no FILTER: `SELECT *` still lists ?opt.
        (
            "SELECT * WHERE { ?s ex:value ?v . FILTER(?v = 1000) OPTIONAL { ?s ex:p ?opt } }",
            false,
        ),
        // Type errors drop the row wherever the FILTER runs.
        (
            "SELECT * WHERE { ?obs ex:value ?v . ?obs ex:country ?c . ?c ex:continent ?k . FILTER(?v > 6) FILTER(?k + 1) }",
            true,
        ),
        (
            "SELECT * WHERE { ?obs ex:value ?v . ?obs ex:country ?c . ?c ex:continent ?k . FILTER(?v > 6) }",
            true,
        ),
        // An equality FILTER pins its variable; the pinned pattern moves
        // first and the FILTER runs right after it.
        (
            "SELECT * WHERE { ?obs ex:country ?c . ?c rdfs:label ?l . FILTER(STR(?l) = \"Syria\") }",
            true,
        ),
        // A variable repeated within and across patterns.
        (
            "SELECT * WHERE { ?x ?p ?y . ?y ex:rel ?x . ?x ex:rel ?x }",
            true,
        ),
        // A constant the graph has never seen: the run is empty.
        (
            "SELECT * WHERE { ?obs ex:country ?c . ?c ex:missing ?z . ?c ex:continent ?k }",
            true,
        ),
        (
            "SELECT * WHERE { ?obs ex:country ?c . ?c ex:continent ?k . FILTER(?k = ex:Nowhere) }",
            true,
        ),
        // VALUES with UNDEF: rows entering the run bind different slots,
        // so each input row has its own textual key.
        (
            "SELECT * WHERE { VALUES (?c ?k) { (ex:SY UNDEF) (UNDEF ex:Africa) (UNDEF UNDEF) } ?obs ex:country ?c . ?c ex:continent ?k . ?obs ex:year ?y }",
            true,
        ),
        // A reordered run inside OPTIONAL bodies, where the hidden slot
        // tags rows with their origin, nested one level deeper too.
        (
            "SELECT * WHERE { ?obs a ex:Observation . OPTIONAL { ?o2 ex:country ?c . ?obs ex:country ?c . ?c ex:continent ?k } }",
            true,
        ),
        (
            "SELECT * WHERE { ?obs a ex:Observation . OPTIONAL { ?obs ex:value ?v . OPTIONAL { ?o2 ex:country ?c . ?obs ex:country ?c . ?c rdfs:label ?l } } }",
            true,
        ),
        // Output that depends on arrival order, over a reordered run.
        (
            "SELECT DISTINCT ?c WHERE { ?obs ex:country ?c . ?c ex:continent ?k }",
            true,
        ),
        (
            "SELECT ?k (SAMPLE(?obs) AS ?s) (GROUP_CONCAT(STR(?obs)) AS ?all) WHERE { ?obs ex:country ?c . ?c ex:continent ?k } GROUP BY ?k",
            true,
        ),
        (
            "SELECT * WHERE { ?obs ex:country ?c . ?c ex:continent ?k } LIMIT 2",
            true,
        ),
        (
            "SELECT * WHERE { ?obs ex:country ?c . ?c ex:continent ?k } LIMIT 2 OFFSET 3",
            true,
        ),
    ];
    // The countries interned in reverse, so a run that joins continents
    // first meets rows in another order than the textual one, and the
    // country index (by country, then observation) in another order than
    // the observations'. Forty observations of a country on no continent
    // make starting from the countries cost what a reorder must save.
    let endpoint = LocalEndpoint::new();
    let fillers: String = (0..40)
        .map(|i| format!("ex:f{i} a ex:Observation ; ex:country ex:ZZ .\n"))
        .collect();
    endpoint
        .store()
        .load_turtle(&format!(
            "@prefix ex: <http://example.org/> .
             ex:XX ex:rank 1 . ex:FR ex:rank 2 . ex:NG ex:rank 3 . ex:SY ex:rank 4 .
             {fillers}"
        ))
        .unwrap();
    endpoint.store().load_turtle(GRAPH).unwrap();
    type Evaluate = fn(&rdf::Graph, &sparql::Query) -> Result<QueryResults, sparql::SparqlError>;
    let evaluate = |query: &sparql::Query, with: Evaluate| match endpoint
        .store()
        .with_default_graph(|graph| with(graph, query))
        .unwrap()
    {
        QueryResults::Solutions(solutions) => render(&solutions),
        QueryResults::Boolean(_) => panic!("not a SELECT result"),
    };
    let mut unrestored_differs = 0;
    for &(query, moved) in cases {
        let text = format!("{PREFIXES}{query}");
        let parsed = sparql::parse_query(&text).unwrap();
        let before = EvalCounters::thread_totals();
        let planned = render(&endpoint.select(&text).unwrap());
        let planned_work = EvalCounters::thread_totals().since(before);
        let before = EvalCounters::thread_totals();
        let textual = evaluate(&parsed, evaluate_textual);
        let textual_work = EvalCounters::thread_totals().since(before);
        assert_eq!(planned, textual, "{query}");
        assert_eq!(
            planned_work.rows_intermediate != textual_work.rows_intermediate,
            moved,
            "{query}: planned {planned_work:?}, textual {textual_work:?}"
        );
        if evaluate(&parsed, evaluate_unrestored) != textual {
            unrestored_differs += 1;
        }
    }
    // The table would catch a plan that skipped the restoring sort.
    assert!(
        unrestored_differs >= 5,
        "{unrestored_differs} cases need the restore"
    );
}

/// A SELECT DISTINCT whose ORDER BY keys are exactly its projected
/// variables stops at the first witness per key (`plan::witness_split`)
/// where the driver's walk is no larger than the full join's first step.
/// Each query must return the identity plan's table and the
/// literal one. `work` says what the evaluator's counters must show against
/// the identity plan's: `Some(true)` fewer probes and fewer rows (the rule
/// fired), `Some(false)` the same counts (it did not fire, and the planner
/// kept the textual order), `None` nothing (ORDER BY ties distinct keys, so
/// the query runs again in full).
#[test]
fn a_distinct_select_ordered_on_its_projection_stops_at_the_first_witness() {
    let cases: &[(&str, &[&str], Option<bool>)] = &[
        // m1's first observation is another dataset's, its second is the
        // witness; m2 has no witness at all; m3's first one is.
        (
            "SELECT DISTINCT ?m WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m } ORDER BY ?m",
            &["m", "m1", "m3"],
            Some(true),
        ),
        (
            "SELECT DISTINCT ?m WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m } ORDER BY DESC(?m) LIMIT 1",
            &["m", "m3"],
            Some(true),
        ),
        (
            "SELECT DISTINCT ?m WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m } ORDER BY ?m OFFSET 1",
            &["m", "m3"],
            Some(true),
        ),
        // An existential variable read by a FILTER: its pattern drives, and
        // m1's only observation in the dataset fails the FILTER.
        (
            "SELECT DISTINCT ?m WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m ; ex:value ?v . FILTER(?v < 5) } ORDER BY ?m",
            &["m", "m3"],
            Some(true),
        ),
        // A variable bound by both the driver and a check: ?m drives and
        // the label check reads it; ?o drives and the dataset check reads it.
        (
            "SELECT DISTINCT ?m WHERE { ?o ex:dim ?m . ?m ex:label ?l . ?o ex:dataSet ex:ds } ORDER BY ?m",
            &["m", "m1", "m3"],
            Some(true),
        ),
        // Two projected variables, ordered in another order than projected.
        (
            "SELECT DISTINCT ?m ?k WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m . ?m ex:kind ?k } ORDER BY ?k DESC(?m)",
            &["m k", "m3 \"odd\"", "m1 \"one\""],
            Some(true),
        ),
        // The key is the observation, which the dimension's POS range
        // orders after the member: no seek may skip a member's other
        // observations once one is witnessed.
        (
            "SELECT DISTINCT ?o WHERE { ?o ex:dim ?m . FILTER(?m != ex:m2) } ORDER BY ?o",
            &["o", "a1", "a2", "b0", "b1", "b10", "b11", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9"],
            None,
        ),
        // Distinct equal numbers tie in ORDER BY, and keep textual arrival
        // order: 10.0 (a2) comes before 10 (b10) in the dataset, while the
        // driver meets 10 first.
        (
            "SELECT DISTINCT ?v WHERE { ?o ex:dataSet ex:ds ; ex:value ?v . FILTER(?v >= 9) } ORDER BY ?v",
            &["v", "9", "10.0", "10", "11"],
            None,
        ),
        // The rule must not fire: DISTINCT with no ORDER BY, and an ORDER BY
        // over a strict subset of the projection, keep first occurrences.
        (
            "SELECT DISTINCT ?m WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m }",
            &["m", "m3", "m1"],
            Some(false),
        ),
        (
            "SELECT DISTINCT ?m ?v WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m ; ex:value ?v . FILTER(?v > 8) } ORDER BY ?m",
            &["m v", "m1 10.0", "m3 9", "m3 10", "m3 11"],
            Some(false),
        ),
        // The rule must not fire either where the driver would walk more
        // than the full join's first step: ex:other has two observations,
        // the dimension fifteen, so the full join runs from the dataset.
        (
            "SELECT DISTINCT ?m WHERE { ?o ex:dataSet ex:other ; ex:dim ?m } ORDER BY ?m",
            &["m", "m1", "m2"],
            Some(false),
        ),
        // A constant the graph has never seen: no witness anywhere.
        (
            "SELECT DISTINCT ?m WHERE { ?o ex:dataSet ex:nowhere ; ex:dim ?m } ORDER BY ?m",
            &["m"],
            None,
        ),
    ];
    // b0 comes first, so the dataset's first observation is an m3 one and
    // its first-occurrence order differs from the sorted one. The
    // dimension's index walks each member's observations in interning
    // order: m1's a1 (another dataset) before a2. The c observations carry
    // no ex:dim, so ex:ds (18 observations) outnumbers the dimension's 15
    // triples and the driver's walk is the cheaper first step.
    let mut data = String::from(
        "@prefix ex: <http://example.org/> .
         ex:b0 ex:dataSet ex:ds ; ex:dim ex:m3 ; ex:value 0 .
         ex:a1 ex:dataSet ex:other ; ex:dim ex:m1 ; ex:value 10 .
         ex:a2 ex:dataSet ex:ds ; ex:dim ex:m1 ; ex:value 10.0 .
         ex:a3 ex:dataSet ex:other ; ex:dim ex:m2 ; ex:value 7 .
         ex:m1 ex:label \"one\" ; ex:kind \"one\" . ex:m3 ex:label \"three\" ; ex:kind \"odd\" .\n",
    );
    for i in 1..12 {
        data.push_str(&format!(
            "ex:b{i} ex:dataSet ex:ds ; ex:dim ex:m3 ; ex:value {i} .\n"
        ));
    }
    for i in 0..5 {
        data.push_str(&format!("ex:c{i} ex:dataSet ex:ds .\n"));
    }
    let endpoint = LocalEndpoint::new();
    endpoint.store().load_turtle(&data).unwrap();
    for &(query, expected, work) in cases {
        let text = format!("{PREFIXES}{query}");
        let parsed = sparql::parse_query(&text).unwrap();
        let before = EvalCounters::thread_totals();
        let planned = render(&endpoint.select(&text).unwrap());
        let planned_work = EvalCounters::thread_totals().since(before);
        let before = EvalCounters::thread_totals();
        let textual = match endpoint
            .store()
            .with_default_graph(|graph| evaluate_textual(graph, &parsed))
            .unwrap()
        {
            QueryResults::Solutions(solutions) => render(&solutions),
            QueryResults::Boolean(_) => panic!("not a SELECT result"),
        };
        let textual_work = EvalCounters::thread_totals().since(before);
        assert_eq!(planned, textual, "{query}");
        assert_eq!(planned, expected, "{query}");
        let fewer = planned_work.index_probes < textual_work.index_probes
            && planned_work.rows_intermediate < textual_work.rows_intermediate;
        match work {
            Some(true) => assert!(
                fewer,
                "{query}: planned {planned_work:?}, textual {textual_work:?}"
            ),
            Some(false) => assert_eq!(planned_work, textual_work, "{query}"),
            None => {}
        }
    }
}

/// The member list's driver seeks past each witnessed member in the
/// dimension's POS range. Over a store whose run was bulk-loaded and whose
/// overlay then took inserted and removed keys inside that range — a member
/// only the overlay holds, another of a second dataset, a member whose
/// every key is removed, a member whose first observation lost its dataset
/// link, an extra key inside a member's run keys — the seeks must land on
/// exactly the keys the textual plan walks to, and return its table.
#[test]
fn a_member_list_seeks_through_an_overlay_of_inserted_and_removed_keys() {
    let mut data = String::from("@prefix ex: <http://example.org/> .\n");
    for i in 0..40 {
        let set = if i % 8 == 7 { "other" } else { "ds" };
        data.push_str(&format!(
            "ex:o{i} ex:dataSet ex:{set} ; ex:dim ex:m{} .\n",
            i % 5
        ));
    }
    let endpoint = LocalEndpoint::new();
    endpoint.store().load_turtle(&data).unwrap();
    let ex = |name: &str| Term::iri(format!("http://example.org/{name}"));
    let triple = |s: &str, p: &str, o: &str| {
        rdf::Triple::new(
            ex(s),
            rdf::Iri::new(format!("http://example.org/{p}")),
            ex(o),
        )
    };
    let store = endpoint.store();
    for (s, set, member) in [
        ("n1", "ds", "m7"),
        ("n2", "other", "m8"),
        ("n3", "ds", "m0"),
    ] {
        assert!(store.insert(&triple(s, "dataSet", set)));
        assert!(store.insert(&triple(s, "dim", member)));
    }
    for i in (2..40).step_by(5) {
        assert!(store.remove(&triple(&format!("o{i}"), "dim", "m2")));
    }
    assert!(store.remove(&triple("o3", "dataSet", "ds")));

    let query = "SELECT DISTINCT ?m WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m } ORDER BY ?m";
    let text = format!("{PREFIXES}{query}");
    let before = EvalCounters::thread_totals();
    let planned = render(&endpoint.select(&text).unwrap());
    let planned_work = EvalCounters::thread_totals().since(before);
    let before = EvalCounters::thread_totals();
    let textual = match endpoint
        .store()
        .with_default_graph(|graph| evaluate_textual(graph, &sparql::parse_query(&text).unwrap()))
        .unwrap()
    {
        QueryResults::Solutions(solutions) => render(&solutions),
        QueryResults::Boolean(_) => panic!("not a SELECT result"),
    };
    let textual_work = EvalCounters::thread_totals().since(before);
    assert_eq!(planned, textual);
    assert_eq!(planned, ["m", "m0", "m1", "m3", "m4", "m7"]);
    // Three keys for each of m0, m1, m4 and m7: the first match, the check's
    // key and the seek past the member's other keys. m3's first match (o3)
    // finds no check key, so m3 walks one more. m8's one match, of another
    // dataset, finds none and ends the range: one key.
    assert_eq!(planned_work.keys_walked, 4 * 3 + 4 + 1, "{planned_work:?}");
    assert!(
        planned_work.keys_walked < textual_work.keys_walked,
        "planned {planned_work:?}, textual {textual_work:?}"
    );
}
